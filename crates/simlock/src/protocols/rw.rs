//! Model of `HemlockRw`'s writer-preference drain/withdrawal protocol
//! (`hemlock_locks::rw::HemlockRw`).
//!
//! The real lock: a writer takes the internal writer mutex, raises the
//! writer flag, then drains every read-indicator stripe to zero; a reader
//! increments its stripe, then checks the writer flag — if it is up, the
//! reader **withdraws** (decrements the stripe it just bumped) and waits
//! for the flag to clear before retrying. Timed variants abort mid-way:
//! a timed reader gives up after withdrawing; a timed writer that cannot
//! drain clears the flag and releases the mutex, leaving no trace.
//!
//! The model uses a CAS word for the writer mutex (the internal Hemlock
//! lock is verified separately by the §3 scenarios — here it is the RW
//! layer above it under test), a flag word, and one FAA stripe word per
//! indicator. Invariants:
//!
//! - `readers-exclude-writer`: no read-side critical section overlaps a
//!   write-side critical section;
//! - `rw-writer-mutual-exclusion`: at most one writer in its CS;
//! - `indicator-consistency`: each stripe word equals the number of
//!   readers currently holding an increment on it (leaks surface
//!   immediately, not just at termination);
//! - `clean-indicators` (terminal): stripes, flag and mutex all zero after
//!   every script — including aborted timed readers/writers — completes.
//!
//! Bug knobs: [`RwBug::SkipWflagCheck`] lets a reader enter its CS without
//! looking at the writer flag (the reader/writer coexistence the check
//! prevents); [`RwBug::LeakOnAbort`] makes a timed reader give up without
//! withdrawing its increment (the indicator leak that would wedge every
//! later writer).

use crate::algo::{AlgoStep, MemPlan};
use crate::op::{Loc, Meta, Op, Until, Val};
use crate::proto::{ProtoThread, ProtoViolation, ProtocolSim};

/// Deliberately-injected protocol bugs (for negative tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RwBug {
    /// Correct protocol.
    #[default]
    None,
    /// Readers skip the writer-flag check after incrementing.
    SkipWflagCheck,
    /// Timed readers abandon their increment instead of withdrawing it.
    LeakOnAbort,
}

/// One thread's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RwRole {
    /// Writer (true) or reader (false).
    pub writer: bool,
    /// Timed variant: abort on first contention instead of waiting.
    pub timed: bool,
    /// Acquire attempts to perform.
    pub rounds: u32,
}

/// Configuration: striped read indicators plus one scripted role per thread.
#[derive(Clone, Debug)]
pub struct RwSim {
    stripes: usize,
    roles: Vec<RwRole>,
    bug: RwBug,
    wlock: Loc,
    wflag: Loc,
    rind_base: Loc,
    words: usize,
}

impl RwSim {
    /// Correct-protocol configuration.
    pub fn new(stripes: usize, roles: Vec<RwRole>) -> Self {
        Self::with_bug(stripes, roles, RwBug::None)
    }

    /// Configuration with an injected bug.
    pub fn with_bug(stripes: usize, roles: Vec<RwRole>, bug: RwBug) -> Self {
        let mut plan = MemPlan::new();
        let wlock = plan.alloc(1);
        let wflag = plan.alloc(1);
        let rind_base = plan.alloc(stripes);
        Self {
            stripes,
            roles,
            bug,
            wlock,
            wflag,
            rind_base,
            words: plan.words(),
        }
    }

    fn rind(&self, k: usize) -> Loc {
        self.rind_base + k
    }

    /// A reader thread's indicator stripe (the real lock hashes the thread
    /// id the same way).
    fn stripe(&self, tid: usize) -> usize {
        tid % self.stripes
    }

    fn round_done(&self, t: &mut RwThread) -> AlgoStep {
        t.round += 1;
        if t.round >= self.roles[t.tid].rounds {
            return AlgoStep::Done;
        }
        self.begin_round(t)
    }

    fn begin_round(&self, t: &mut RwThread) -> AlgoStep {
        if self.roles[t.tid].writer {
            t.pc = Pc::WAcqDecide;
            AlgoStep::Issue(
                Op::Cas {
                    loc: self.wlock,
                    expect: 0,
                    new: t.tid as Val + 1,
                },
                Meta::None,
            )
        } else {
            t.pc = Pc::RInced;
            AlgoStep::Issue(
                Op::Faa {
                    loc: self.rind(self.stripe(t.tid)),
                    add: 1,
                },
                Meta::None,
            )
        }
    }

    /// Next drain step: poll stripe `t.k`, or enter the CS once every
    /// stripe was observed empty.
    fn drain_next(&self, t: &mut RwThread) -> AlgoStep {
        if t.k < self.stripes {
            t.pc = Pc::DrainLoaded;
            AlgoStep::Issue(
                Op::Load(self.rind(t.k)),
                Meta::SpinWait {
                    loc: self.rind(t.k),
                    until: Until::Eq(0),
                },
            )
        } else {
            // All stripes drained: write-side critical section (empty),
            // then release flag-first like the real unlock.
            t.in_cs = true;
            t.acquired += 1;
            t.pc = Pc::WFlagCleared;
            AlgoStep::Issue(Op::Store(self.wflag, 0), Meta::None)
        }
    }
}

/// Program counter of one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    /// Issue the first operation of the first round.
    Start,
    /// `last` = writer-mutex CAS result.
    WAcqDecide,
    /// `last` = result of raising the writer flag.
    WFlagSet,
    /// `last` = stripe `k`'s indicator value.
    DrainLoaded,
    /// `last` = result of clearing the writer flag (CS over).
    WFlagCleared,
    /// `last` = result of releasing the writer mutex.
    WUnlocked,
    /// Timed-writer abort: `last` = result of clearing the flag.
    AbortFlagCleared,
    /// Timed-writer abort: `last` = result of releasing the mutex.
    AbortUnlocked,
    /// `last` = old stripe value from our increment FAA.
    RInced,
    /// `last` = the writer flag.
    RFlagChecked,
    /// `last` = old stripe value from our decrement FAA (CS over).
    RDeced,
    /// `last` = old stripe value from our withdrawal FAA.
    RWithdrawn,
    /// `last` = the writer flag while waiting for it to clear.
    RWaitFlag,
}

/// Per-thread machine state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RwThread {
    tid: usize,
    pc: Pc,
    round: u32,
    /// Successful acquisitions (read or write).
    acquired: u32,
    /// Timed-out attempts.
    aborted: u32,
    /// Inside the (empty) critical section.
    in_cs: bool,
    /// Reader: holding an increment on its stripe.
    inside: bool,
    /// Writer: holding the writer mutex.
    wholding: bool,
    /// Writer: next stripe to drain.
    k: usize,
}

impl RwThread {
    /// True while the thread is in its critical section.
    pub fn in_cs(&self) -> bool {
        self.in_cs
    }
}

impl ProtocolSim for RwSim {
    type Thread = RwThread;

    fn name(&self) -> &'static str {
        "hemlock-rw"
    }

    fn threads(&self) -> usize {
        self.roles.len()
    }

    fn words(&self) -> usize {
        self.words
    }

    fn new_thread(&self, tid: usize) -> RwThread {
        RwThread {
            tid,
            pc: Pc::Start,
            round: 0,
            acquired: 0,
            aborted: 0,
            in_cs: false,
            inside: false,
            wholding: false,
            k: 0,
        }
    }

    fn step(&self, t: &mut RwThread, last: Val) -> AlgoStep {
        let role = self.roles[t.tid];
        match t.pc {
            Pc::Start => self.begin_round(t),
            Pc::WAcqDecide => {
                if last == 0 {
                    t.wholding = true;
                    t.pc = Pc::WFlagSet;
                    AlgoStep::Issue(Op::Store(self.wflag, 1), Meta::None)
                } else {
                    // The internal writer mutex blocks (its timed variant
                    // is Hemlock's own, verified separately).
                    AlgoStep::Issue(
                        Op::Cas {
                            loc: self.wlock,
                            expect: 0,
                            new: t.tid as Val + 1,
                        },
                        Meta::None,
                    )
                }
            }
            Pc::WFlagSet => {
                t.k = 0;
                self.drain_next(t)
            }
            Pc::DrainLoaded => {
                if last == 0 {
                    t.k += 1;
                    self.drain_next(t)
                } else if role.timed {
                    // Timed writer: withdraw — clear the flag, release the
                    // mutex, leave no trace.
                    t.pc = Pc::AbortFlagCleared;
                    AlgoStep::Issue(Op::Store(self.wflag, 0), Meta::None)
                } else {
                    AlgoStep::Issue(
                        Op::Load(self.rind(t.k)),
                        Meta::SpinWait {
                            loc: self.rind(t.k),
                            until: Until::Eq(0),
                        },
                    )
                }
            }
            Pc::WFlagCleared => {
                t.in_cs = false;
                t.pc = Pc::WUnlocked;
                AlgoStep::Issue(Op::Store(self.wlock, 0), Meta::None)
            }
            Pc::WUnlocked => {
                t.wholding = false;
                self.round_done(t)
            }
            Pc::AbortFlagCleared => {
                t.pc = Pc::AbortUnlocked;
                AlgoStep::Issue(Op::Store(self.wlock, 0), Meta::None)
            }
            Pc::AbortUnlocked => {
                t.wholding = false;
                t.aborted += 1;
                self.round_done(t)
            }
            Pc::RInced => {
                t.inside = true;
                if self.bug == RwBug::SkipWflagCheck {
                    // Bug: enter the read CS without looking at the flag.
                    t.in_cs = true;
                    t.acquired += 1;
                    t.pc = Pc::RDeced;
                    AlgoStep::Issue(
                        Op::Faa {
                            loc: self.rind(self.stripe(t.tid)),
                            add: Val::MAX, // two's-complement -1
                        },
                        Meta::None,
                    )
                } else {
                    t.pc = Pc::RFlagChecked;
                    AlgoStep::Issue(Op::Load(self.wflag), Meta::None)
                }
            }
            Pc::RFlagChecked => {
                if last == 0 {
                    // Flag down: the increment is our read license.
                    t.in_cs = true;
                    t.acquired += 1;
                    t.pc = Pc::RDeced;
                    AlgoStep::Issue(
                        Op::Faa {
                            loc: self.rind(self.stripe(t.tid)),
                            add: Val::MAX,
                        },
                        Meta::None,
                    )
                } else if role.timed && self.bug == RwBug::LeakOnAbort {
                    // Bug: give up without withdrawing the increment.
                    t.aborted += 1;
                    self.round_done(t)
                } else {
                    // Writer pending: withdraw our increment first.
                    t.pc = Pc::RWithdrawn;
                    AlgoStep::Issue(
                        Op::Faa {
                            loc: self.rind(self.stripe(t.tid)),
                            add: Val::MAX,
                        },
                        Meta::None,
                    )
                }
            }
            Pc::RDeced => {
                t.in_cs = false;
                t.inside = false;
                self.round_done(t)
            }
            Pc::RWithdrawn => {
                t.inside = false;
                if role.timed {
                    t.aborted += 1;
                    self.round_done(t)
                } else {
                    t.pc = Pc::RWaitFlag;
                    AlgoStep::Issue(
                        Op::Load(self.wflag),
                        Meta::SpinWait {
                            loc: self.wflag,
                            until: Until::Eq(0),
                        },
                    )
                }
            }
            Pc::RWaitFlag => {
                if last == 0 {
                    t.pc = Pc::RInced;
                    AlgoStep::Issue(
                        Op::Faa {
                            loc: self.rind(self.stripe(t.tid)),
                            add: 1,
                        },
                        Meta::None,
                    )
                } else {
                    AlgoStep::Issue(
                        Op::Load(self.wflag),
                        Meta::SpinWait {
                            loc: self.wflag,
                            until: Until::Eq(0),
                        },
                    )
                }
            }
        }
    }

    fn check(&self, mem: &[Val], threads: &[ProtoThread<RwThread>]) -> Result<(), ProtoViolation> {
        let writers_in_cs: Vec<usize> = threads
            .iter()
            .filter(|t| self.roles[t.state.tid].writer && t.state.in_cs)
            .map(|t| t.state.tid)
            .collect();
        let readers_in_cs: Vec<usize> = threads
            .iter()
            .filter(|t| !self.roles[t.state.tid].writer && t.state.in_cs)
            .map(|t| t.state.tid)
            .collect();
        if writers_in_cs.len() > 1 {
            return Err(ProtoViolation {
                invariant: "rw-writer-mutual-exclusion",
                detail: format!("writers {writers_in_cs:?} in CS simultaneously"),
            });
        }
        if !writers_in_cs.is_empty() && !readers_in_cs.is_empty() {
            return Err(ProtoViolation {
                invariant: "readers-exclude-writer",
                detail: format!(
                    "writer {} and readers {readers_in_cs:?} in CS simultaneously",
                    writers_in_cs[0]
                ),
            });
        }
        for k in 0..self.stripes {
            let inside = threads
                .iter()
                .filter(|t| {
                    !self.roles[t.state.tid].writer
                        && t.state.inside
                        && self.stripe(t.state.tid) == k
                })
                .count() as Val;
            if mem[self.rind(k)] != inside {
                return Err(ProtoViolation {
                    invariant: "indicator-consistency",
                    detail: format!(
                        "stripe {k} reads {} but {inside} readers hold increments on it",
                        mem[self.rind(k)]
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_terminal(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<RwThread>],
    ) -> Result<(), ProtoViolation> {
        for k in 0..self.stripes {
            if mem[self.rind(k)] != 0 {
                return Err(ProtoViolation {
                    invariant: "clean-indicators",
                    detail: format!(
                        "stripe {k} is {} after all scripts (withdrawals must leave \
                         indicators clean)",
                        mem[self.rind(k)]
                    ),
                });
            }
        }
        if mem[self.wflag] != 0 || mem[self.wlock] != 0 {
            return Err(ProtoViolation {
                invariant: "clean-indicators",
                detail: format!(
                    "terminal writer state not clean: wflag={} wlock={}",
                    mem[self.wflag], mem[self.wlock]
                ),
            });
        }
        for t in threads {
            let role = self.roles[t.state.tid];
            if t.state.acquired + t.state.aborted != role.rounds {
                return Err(ProtoViolation {
                    invariant: "clean-indicators",
                    detail: format!(
                        "thread {} finished {}+{} of {} rounds",
                        t.state.tid, t.state.acquired, t.state.aborted, role.rounds
                    ),
                });
            }
            if !role.timed && t.state.aborted != 0 {
                return Err(ProtoViolation {
                    invariant: "clean-indicators",
                    detail: format!("untimed thread {} aborted", t.state.tid),
                });
            }
        }
        Ok(())
    }

    fn invariants(&self) -> &'static [&'static str] {
        &[
            "readers-exclude-writer",
            "rw-writer-mutual-exclusion",
            "indicator-consistency",
            "clean-indicators",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProtoWorld;

    fn roles() -> Vec<RwRole> {
        vec![
            RwRole {
                writer: true,
                timed: false,
                rounds: 1,
            },
            RwRole {
                writer: false,
                timed: false,
                rounds: 2,
            },
            RwRole {
                writer: false,
                timed: true,
                rounds: 1,
            },
        ]
    }

    #[test]
    fn mixed_roles_complete_clean() {
        for seed in 0..20 {
            let mut w = ProtoWorld::new(RwSim::new(2, roles()));
            w.run_random(seed, 1_000_000).expect("terminates");
            assert!(w.check_now().is_ok());
            assert!(w.check_terminal_now().is_ok());
        }
    }
}
