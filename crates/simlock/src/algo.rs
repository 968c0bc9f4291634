//! The lock-algorithm interface of the simulated machine.
//!
//! Each algorithm is re-encoded as an explicit state machine: the driver
//! repeatedly calls [`LockAlgorithm::step`], which consumes the result of
//! the previously issued operation and yields the next operation (or
//! reports that the current acquire/release finished). This makes every
//! interleaving of atomic operations schedulable by the model checker and
//! traceable by the coherence simulator.

use crate::op::{Loc, Meta, Op, Val};

/// One step's outcome from an algorithm state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoStep {
    /// Issue this operation (with checker metadata).
    Issue(Op, Meta),
    /// The acquire/release in progress has completed.
    Done,
}

/// A lock algorithm compiled to the simulated machine.
///
/// Implementations are configured for a fixed number of threads and locks
/// and lay out their own simulated memory (word 0 is reserved as the null
/// address — lock and thread identities stored *in* memory are word indices
/// and must be non-zero).
pub trait LockAlgorithm {
    /// Per-thread algorithm state (registers + program counter).
    type Thread: Clone + std::hash::Hash + Eq + std::fmt::Debug;

    /// Display name, matching the real implementation's `RawLock::META.name`.
    fn name(&self) -> &'static str;

    /// Number of simulated memory words.
    fn words(&self) -> usize;

    /// Number of locks this configuration was laid out for.
    /// [`LockSim`](crate::LockSim) sizes its per-lock oracles (doorstep
    /// ticket counters, mutual-exclusion census) from this, so it is derived
    /// from the algorithm rather than passed alongside it — a mismatched
    /// count would silently skip checking the extra locks.
    fn locks(&self) -> usize;

    /// Initial memory contents (length == `words()`).
    fn initial_memory(&self) -> Vec<Val>;

    /// Cache line of a word. Words default to private lines; algorithms
    /// co-locate fields that share a line in the real layout (e.g. the
    /// ticket lock's two counters).
    fn line_of(&self, loc: Loc) -> usize {
        loc
    }

    /// Fresh per-thread state for thread `tid`.
    fn new_thread(&self, tid: usize) -> Self::Thread;

    /// Begin acquiring `lock`. The machine must be idle.
    fn begin_acquire(&self, t: &mut Self::Thread, lock: usize);

    /// Begin releasing `lock`. The machine must be idle and the thread must
    /// hold `lock`.
    fn begin_release(&self, t: &mut Self::Thread, lock: usize);

    /// Advance the machine: `last` is the result of the operation issued by
    /// the previous `step` (0 on the first call after a `begin_*`).
    fn step(&self, t: &mut Self::Thread, last: Val) -> AlgoStep;

    /// The shared data word protected by `lock` (critical-section work).
    fn data_word(&self, lock: usize) -> Loc;

    /// Thread `tid`'s private word (non-critical-section work).
    fn private_word(&self, tid: usize) -> Loc;

    /// For algorithms with a Hemlock-style per-thread mailbox: the Grant
    /// word of thread `tid`. Used by the fere-local spinning invariant.
    fn grant_word(&self, _tid: usize) -> Option<Loc> {
        None
    }
}

/// Sequential allocator for simulated memory regions. Word 0 is always
/// reserved so that 0 can represent null.
pub struct MemPlan {
    next: Loc,
}

impl MemPlan {
    /// New plan with word 0 reserved.
    pub fn new() -> Self {
        Self { next: 1 }
    }

    /// Reserves `count` consecutive words; returns the base index.
    pub fn alloc(&mut self, count: usize) -> Loc {
        let base = self.next;
        self.next += count;
        base
    }

    /// Total words allocated (including the reserved null word).
    pub fn words(&self) -> usize {
        self.next
    }
}

impl Default for MemPlan {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memplan_reserves_null() {
        let mut p = MemPlan::new();
        let a = p.alloc(3);
        let b = p.alloc(2);
        assert_eq!(a, 1);
        assert_eq!(b, 4);
        assert_eq!(p.words(), 6);
    }
}
