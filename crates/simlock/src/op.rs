//! Atomic operations of the simulated shared-memory machine.
//!
//! The paper's proofs assume "the standard model of shared memory with basic
//! atomic read and write operations as well as more advanced atomic SWAP,
//! CAS and FAA operations" (§3). This module is exactly that model: every
//! thread step performs at most one of these operations on a word of
//! simulated memory.

/// Index of a word in simulated shared memory.
pub type Loc = usize;

/// A simulated memory word's value.
pub type Val = u64;

/// One atomic operation. RMW operations return the *old* value, matching
/// the paper's §3 definitions of SWAP/CAS/FAA.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Atomic read.
    Load(Loc),
    /// Atomic write.
    Store(Loc, Val),
    /// Compare-and-swap: writes `new` iff the current value equals
    /// `expect`; returns the value read either way (the paper's convention:
    /// "the CAS instruction returns the current value it has read").
    Cas {
        /// Target word.
        loc: Loc,
        /// Expected old value.
        expect: Val,
        /// Replacement written on success.
        new: Val,
    },
    /// Unconditional exchange; returns the old value.
    Swap {
        /// Target word.
        loc: Loc,
        /// Value written.
        val: Val,
    },
    /// Fetch-and-add; returns the old value. `Faa(loc, 0)` is the
    /// read-with-intent-to-write primitive of the CTR optimization.
    Faa {
        /// Target word.
        loc: Loc,
        /// Addend.
        add: Val,
    },
}

impl Op {
    /// The word this operation touches.
    pub fn loc(&self) -> Loc {
        match *self {
            Op::Load(l) => l,
            Op::Store(l, _) => l,
            Op::Cas { loc, .. } | Op::Swap { loc, .. } | Op::Faa { loc, .. } => loc,
        }
    }

    /// Executes this operation against simulated memory, returning the value
    /// read (the *old* value for RMWs, 0 for stores).
    pub fn apply(self, mem: &mut [Val]) -> Val {
        match self {
            Op::Load(l) => mem[l],
            Op::Store(l, v) => {
                mem[l] = v;
                0
            }
            Op::Cas { loc, expect, new } => {
                let old = mem[loc];
                if old == expect {
                    mem[loc] = new;
                }
                old
            }
            Op::Swap { loc, val } => {
                let old = mem[loc];
                mem[loc] = val;
                old
            }
            Op::Faa { loc, add } => {
                let old = mem[loc];
                mem[loc] = old.wrapping_add(add);
                old
            }
        }
    }

    /// How the cache model should treat this access.
    pub fn access_kind(&self) -> AccessKind {
        match self {
            Op::Load(_) => AccessKind::Load,
            Op::Store(..) => AccessKind::Store,
            // RMWs require exclusive ownership regardless of outcome — on
            // x86 even a failing CAS performs a read-for-ownership.
            Op::Cas { .. } | Op::Swap { .. } | Op::Faa { .. } => AccessKind::Rmw,
        }
    }
}

/// Coherence-relevant classification of an [`Op`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Needs the line in a readable state (S/E/M/O/F).
    Load,
    /// Needs the line in M state.
    Store,
    /// Needs the line in M state (read-modify-write).
    Rmw,
}

/// A busy-wait loop's exit condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Until {
    /// The loop exits when the word equals this value.
    Eq(Val),
    /// The loop exits when the word differs from this value.
    Ne(Val),
}

impl Until {
    /// Whether the awaited condition holds for the given word value.
    pub fn satisfied(&self, v: Val) -> bool {
        match *self {
            Until::Eq(x) => v == x,
            Until::Ne(x) => v != x,
        }
    }
}

/// Metadata attached to an emitted operation, used by the property checkers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Meta {
    /// Plain operation.
    None,
    /// This is the **entry doorstep** for `lock` (§3: the arrival SWAP/FAA
    /// that fixes the thread's position in the FIFO order).
    Doorstep {
        /// Index of the lock being acquired.
        lock: usize,
    },
    /// The thread is busy-waiting: this operation polls `loc` and will be
    /// reissued until `until` holds. The fere-local census counts a thread
    /// as *spinning* only while its condition is unsatisfied — §3's waiters
    /// are "waiting for L to appear"; the final poll that observes the
    /// published value is the loop's exit, not a spin.
    SpinWait {
        /// The word being spun on.
        loc: Loc,
        /// Exit condition of the busy-wait loop.
        until: Until,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loc_extraction() {
        assert_eq!(Op::Load(3).loc(), 3);
        assert_eq!(Op::Store(4, 9).loc(), 4);
        assert_eq!(
            Op::Cas {
                loc: 5,
                expect: 0,
                new: 1
            }
            .loc(),
            5
        );
        assert_eq!(Op::Swap { loc: 6, val: 2 }.loc(), 6);
        assert_eq!(Op::Faa { loc: 7, add: 0 }.loc(), 7);
    }

    #[test]
    fn rmw_classification() {
        assert_eq!(Op::Load(0).access_kind(), AccessKind::Load);
        assert_eq!(Op::Store(0, 1).access_kind(), AccessKind::Store);
        assert_eq!(
            Op::Faa { loc: 0, add: 0 }.access_kind(),
            AccessKind::Rmw,
            "FAA(x,0) still needs ownership — that is the whole point of CTR"
        );
    }
}
