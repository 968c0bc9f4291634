//! The simulation substrate: small concurrency protocols as deterministic
//! state machines over simulated shared memory.
//!
//! Every model in this crate is a [`ProtocolSim`]: the paper's lock
//! algorithms (through the [`LockSim`](crate::LockSim) adapter, whose
//! invariants are the §3 theorems) and the post-seed layers of this
//! workspace (the `WakerSet` Dekker pair, the `WakerQueue` grant/cancel
//! machinery, `ShardedTable::with_two`'s ordered acquire, `HemlockRw`'s
//! drain/withdrawal, the flat-combining publication-record lifecycle, and
//! the reactor's park and stop protocols), which are hand-rolled protocols
//! the paper does not verify for us. Each machine issues one atomic
//! operation per step against explicit shared words, so `hemlock-model` can
//! explore every schedule of a small configuration and check the model's
//! named invariants at every reachable state.
//!
//! Two deliberate modeling conventions:
//!
//! - **The machine is sequentially consistent**, so real-code fences are
//!   no-ops here. What a fence *buys* on weak hardware is an ordering
//!   discipline (e.g. the `WakerSet` store→load Dekker pair); the models
//!   encode that discipline as program order, and the bug-injection knobs
//!   reorder or drop the fenced step — which is precisely the execution the
//!   fence exists to forbid.
//! - **Parking is modeled as spinning on a wake-flag word.** A lost wakeup
//!   therefore manifests as a state from which no enabled thread's step
//!   changes the machine state, which the explorer reports as a deadlock.

use crate::algo::AlgoStep;
use crate::op::{Meta, Op, Val};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A named invariant violation reported by a protocol model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoViolation {
    /// Short stable invariant name (e.g. `"no-double-grant"`), matching the
    /// scenario/invariant table in `docs/ARCHITECTURE.md`.
    pub invariant: &'static str,
    /// Human-readable description of the violating state.
    pub detail: String,
}

impl std::fmt::Display for ProtoViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// A concurrency protocol compiled to the simulated machine.
///
/// A protocol thread runs a script baked into its state machine
/// (lock/park/cancel/combine sequences with the protocol's own semantics,
/// or, for [`LockSim`](crate::LockSim), a [`Program`](crate::Program) over
/// a [`LockAlgorithm`](crate::LockAlgorithm)); and the protocol carries its
/// own named invariants, which the model checker evaluates at every
/// explored state.
pub trait ProtocolSim {
    /// Per-thread machine state (registers + program counter).
    type Thread: Clone + Hash + Eq + std::fmt::Debug;

    /// Display name of the protocol configuration (stable; used in reports).
    fn name(&self) -> &'static str;

    /// Number of threads in this configuration.
    fn threads(&self) -> usize;

    /// Number of simulated memory words (word 0 reserved as null).
    fn words(&self) -> usize;

    /// Initial memory contents (length == `words()`).
    fn initial_memory(&self) -> Vec<Val> {
        vec![0; self.words()]
    }

    /// Fresh machine state for thread `tid`.
    fn new_thread(&self, tid: usize) -> Self::Thread;

    /// Advance the machine: `last` is the result of the operation issued by
    /// the previous `step` (0 on the very first call). Returning
    /// [`AlgoStep::Done`] means the thread's whole script is complete.
    fn step(&self, t: &mut Self::Thread, last: Val) -> AlgoStep;

    /// Checker bookkeeping for an executed operation, run after the
    /// operation and before the next `step`, so it adds no scheduling
    /// point. It may write checker-only words past the protocol's real
    /// memory and checker-only thread fields. The default does nothing.
    fn ghost(&self, _mem: &mut [Val], _t: &mut Self::Thread, _meta: Meta) {}

    /// Safety invariants, checked at every explored state (including states
    /// where threads are mid-operation). Return the first violated
    /// invariant.
    fn check(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<Self::Thread>],
    ) -> Result<(), ProtoViolation>;

    /// Invariants of fully-terminated states (e.g. indicators drained,
    /// queues empty, every thread's outcome consistent).
    fn check_terminal(
        &self,
        _mem: &[Val],
        _threads: &[ProtoThread<Self::Thread>],
    ) -> Result<(), ProtoViolation> {
        Ok(())
    }

    /// Names of every invariant this model can report (for reports and the
    /// documentation table). Deadlock-freedom is implicit: the explorer
    /// reports it for any protocol.
    fn invariants(&self) -> &'static [&'static str];
}

/// One simulated protocol thread: machine state + the in-flight operation.
///
/// The result of an executed operation is handed to [`ProtocolSim::step`]
/// at once and is not kept, so it never splits states with one future.
#[derive(Clone, Debug)]
pub struct ProtoThread<T> {
    /// Protocol machine state (registers + program counter).
    pub state: T,
    /// Operation issued but not yet executed.
    pub pending: Option<(Op, Meta)>,
    /// The thread's script ran to completion.
    pub done: bool,
}

impl<T: Hash> ProtoThread<T> {
    fn state_hash(&self, h: &mut impl Hasher) {
        self.state.hash(h);
        self.pending.hash(h);
        self.done.hash(h);
    }
}

/// The whole simulated protocol machine: shared words × thread machines,
/// advanced one atomic operation at a time by an external scheduler
/// (round-robin, seeded-random, or the model checker's DFS).
#[derive(Clone, Debug)]
pub struct ProtoWorld<P: ProtocolSim> {
    /// Protocol configuration (immutable during a run).
    pub proto: P,
    /// Shared memory words.
    pub mem: Vec<Val>,
    /// Thread states.
    pub threads: Vec<ProtoThread<P::Thread>>,
}

impl<P: ProtocolSim> ProtoWorld<P> {
    /// Builds the world with every thread at the start of its script.
    pub fn new(proto: P) -> Self {
        let mem = proto.initial_memory();
        debug_assert_eq!(mem.len(), proto.words());
        let threads = (0..proto.threads())
            .map(|tid| ProtoThread {
                state: proto.new_thread(tid),
                pending: None,
                done: false,
            })
            .collect();
        Self {
            proto,
            mem,
            threads,
        }
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// True when every thread's script completed.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(|t| t.done)
    }

    fn refill(&mut self, tid: usize, last: Val) {
        let t = &mut self.threads[tid];
        if t.pending.is_some() || t.done {
            return;
        }
        match self.proto.step(&mut t.state, last) {
            AlgoStep::Issue(op, meta) => t.pending = Some((op, meta)),
            AlgoStep::Done => t.done = true,
        }
    }

    /// Advances thread `tid` by one atomic operation and returns it, or
    /// `None` if the thread was already finished.
    pub fn step(&mut self, tid: usize) -> Option<(Op, Meta)> {
        // Only a thread's first step finds nothing issued yet.
        self.refill(tid, 0);
        let (op, meta) = self.threads[tid].pending.take()?;
        let last = op.apply(&mut self.mem);
        self.proto
            .ghost(&mut self.mem, &mut self.threads[tid].state, meta);
        // Pull the machine forward so completion is observed in the same
        // step as the operation that caused it.
        self.refill(tid, last);
        Some((op, meta))
    }

    /// Runs the protocol's per-state safety invariants on the current state.
    pub fn check_now(&self) -> Result<(), ProtoViolation> {
        self.proto.check(&self.mem, &self.threads)
    }

    /// Runs the protocol's terminal-state invariants (call only when
    /// [`all_finished`](Self::all_finished)).
    pub fn check_terminal_now(&self) -> Result<(), ProtoViolation> {
        debug_assert!(self.all_finished());
        self.proto.check_terminal(&self.mem, &self.threads)
    }

    /// Hash of the entire machine state (for the model checker's visited
    /// set). The protocol configuration is fixed per run and not hashed.
    pub fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.mem.hash(&mut h);
        for t in &self.threads {
            t.state_hash(&mut h);
        }
        h.finish()
    }

    /// Runs threads round-robin until all finish or `max_steps` operations
    /// elapse. Returns the number of operations executed, or `None` if the
    /// budget ran out (a liveness failure under this fair schedule).
    pub fn run_round_robin(&mut self, max_steps: u64) -> Option<u64> {
        let mut steps = 0u64;
        while !self.all_finished() {
            for tid in 0..self.thread_count() {
                if self.step(tid).is_some() {
                    steps += 1;
                }
            }
            if steps > max_steps {
                return None;
            }
        }
        Some(steps)
    }

    /// The seeded fair scheduler: a uniformly random unfinished thread.
    /// Every random walk, and the Table 2 replay, picks threads through it.
    /// Call only while some thread is unfinished.
    pub fn random_live(&self, rng: &mut SplitMix64) -> usize {
        let live: Vec<usize> = (0..self.thread_count())
            .filter(|&t| !self.threads[t].done)
            .collect();
        live[(rng.next() % live.len() as u64) as usize]
    }

    /// Runs threads under a seeded uniformly-random (hence probabilistically
    /// fair) schedule. Returns the number of operations executed, or `None`
    /// on budget exhaustion.
    pub fn run_random(&mut self, seed: u64, max_steps: u64) -> Option<u64> {
        let mut rng = SplitMix64::new(seed);
        let mut steps = 0u64;
        while !self.all_finished() {
            self.step(self.random_live(&mut rng));
            steps += 1;
            if steps > max_steps {
                return None;
            }
        }
        Some(steps)
    }
}

/// Tiny deterministic PRNG for the random schedulers (no external deps).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    /// Next 64-bit value.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite stream
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
    }
}
