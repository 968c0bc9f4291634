//! The Hemlock family as simulated state machines: the Listing 1 reference
//! algorithm, the CTR default, and all four appendix variants.
//!
//! One `Tail` word per lock, one `Grant` word per thread. Thread identity in
//! memory is the thread's Grant word index. Lock identity is the lock's
//! Tail word index; published Grant values are `tail_loc << 1` so that the
//! V1 variant's `L|1` successor tag has a real low bit to borrow, exactly
//! as the paper borrows bit 0 of a word-aligned lock address.
//!
//! | Flavor | Paper | Waiter poll | Contended unlock |
//! |--------|-------|-------------|------------------|
//! | `Naive` | Listing 1 | load | CAS tail → publish → load-wait for ack |
//! | `Ctr` | Listing 2 | CAS | CAS tail → publish → FAA(0)-wait |
//! | `Overlap` | Listing 3 | load | CAS tail → drain own residual → publish, **no ack wait** (deferred to next op's prologue) |
//! | `Ah` | Listing 4 | CAS | **publish first**, CAS tail, retract if uncontended |
//! | `V1` | Listing 5 | mark `L\|1`, then CAS | tag check skips Tail entirely when a successor is certain |
//! | `V2` | Listing 6 | CAS | polite Tail probe before the CAS |

use crate::algo::{AlgoStep, LockAlgorithm, MemPlan};
use crate::algos::CommonWords;
use crate::op::{Loc, Meta, Op, Until, Val};

/// Which listing to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HemlockFlavor {
    /// Listing 1 ("Hemlock−"): plain-load busy-waiting.
    Naive,
    /// Listing 2 ("Hemlock"): CAS/FAA busy-waiting (CTR optimization).
    Ctr,
    /// Listing 3: Overlap — the ack wait moves to later operations.
    Overlap,
    /// Listing 4: Aggressive Hand-over (publish before the Tail CAS).
    Ah,
    /// Listing 5: Optimized Hand-over V1 (`L|1` successor tag).
    V1,
    /// Listing 6: Optimized Hand-over V2 (polite Tail probe).
    V2,
}

impl HemlockFlavor {
    /// All flavors in presentation order.
    pub const ALL: [HemlockFlavor; 6] = [
        HemlockFlavor::Naive,
        HemlockFlavor::Ctr,
        HemlockFlavor::Overlap,
        HemlockFlavor::Ah,
        HemlockFlavor::V1,
        HemlockFlavor::V2,
    ];
}

/// Hemlock machine configuration.
#[derive(Clone, Debug)]
pub struct HemlockSim {
    locks: usize,
    flavor: HemlockFlavor,
    tail_base: Loc,  // 1 word per lock
    grant_base: Loc, // 1 word per thread
    common: CommonWords,
    words: usize,
}

impl HemlockSim {
    /// Configures for `threads` threads contending over `locks` locks.
    pub fn new(threads: usize, locks: usize, flavor: HemlockFlavor) -> Self {
        let mut plan = MemPlan::new();
        let tail_base = plan.alloc(locks);
        let grant_base = plan.alloc(threads);
        let common = CommonWords::plan(&mut plan, threads, locks);
        Self {
            locks,
            flavor,
            tail_base,
            grant_base,
            common,
            words: plan.words(),
        }
    }

    /// The lock's Tail word.
    pub fn tail(&self, lock: usize) -> Loc {
        self.tail_base + lock
    }

    /// The value published through Grant fields for `lock` — the "lock
    /// address", shifted so bit 0 is free for V1's successor tag.
    pub fn pub_val(&self, lock: usize) -> Val {
        (self.tail(lock) as Val) << 1
    }

    /// V1's `L|1` successor-exists tag.
    pub fn tag_val(&self, lock: usize) -> Val {
        self.pub_val(lock) | 1
    }

    /// Thread `tid`'s Grant word — doubles as the thread's identity.
    pub fn grant(&self, tid: usize) -> Loc {
        self.grant_base + tid
    }

    fn spin_poll(&self, pred: Loc, l_pub: Val) -> AlgoStep {
        match self.flavor {
            HemlockFlavor::Naive | HemlockFlavor::Overlap => AlgoStep::Issue(
                Op::Load(pred),
                Meta::SpinWait {
                    loc: pred,
                    until: Until::Eq(l_pub),
                },
            ),
            _ => AlgoStep::Issue(
                Op::Cas {
                    loc: pred,
                    expect: l_pub,
                    new: 0,
                },
                Meta::SpinWait {
                    loc: pred,
                    until: Until::Eq(l_pub),
                },
            ),
        }
    }

    fn ack_poll(&self, me: Loc, until: Until) -> AlgoStep {
        let op = match self.flavor {
            HemlockFlavor::Naive | HemlockFlavor::Overlap => Op::Load(me),
            _ => Op::Faa { loc: me, add: 0 },
        };
        AlgoStep::Issue(op, Meta::SpinWait { loc: me, until })
    }
}

/// Per-thread Hemlock state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct HemlockThread {
    tid: usize,
    pc: Pc,
    lock: usize,
    pred: Loc,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Idle,
    /// Overlap line 6: `last` = own Grant; drain a residual of THIS lock.
    AcqResidual,
    /// SWAP self onto the tail (doorstep).
    AcqSwap,
    /// `last` = predecessor (0 ⇒ uncontended).
    AcqCheckPred,
    /// V1: marker CAS issued; result irrelevant, start the real poll.
    AcqV1Marked,
    /// `last` = poll result (load value or CAS observation).
    AcqSpin,
    /// Naive/Overlap: ack store issued.
    AcqAckFini,
    /// AH: speculative publish issued; now CAS the tail.
    RelAhCas,
    /// AH: `last` = CAS result; retract or wait for ack.
    RelAhCheck,
    /// AH: retract store issued.
    RelAhFini,
    /// V1: `last` = own Grant value; tag check.
    RelV1Check,
    /// V2: `last` = polite Tail probe result.
    RelV2Probe,
    /// Naive/Ctr/Overlap/V1/V2: CAS the tail from self to null.
    RelCas,
    /// `last` = CAS result.
    RelCheckCas,
    /// Overlap line 16: `last` = own Grant; drain any residual handover.
    RelDrain,
    /// Publish the lock address into our Grant.
    RelPublish,
    /// `last` = our Grant value; wait for the ack (condition per flavor).
    RelSpin,
    /// Overlap: publish issued; release is complete without an ack wait.
    RelOverlapFini,
}

impl LockAlgorithm for HemlockSim {
    type Thread = HemlockThread;

    fn name(&self) -> &'static str {
        match self.flavor {
            HemlockFlavor::Naive => "Hemlock-",
            HemlockFlavor::Ctr => "Hemlock",
            HemlockFlavor::Overlap => "Hemlock+Overlap",
            HemlockFlavor::Ah => "Hemlock+AH",
            HemlockFlavor::V1 => "Hemlock+HOV1",
            HemlockFlavor::V2 => "Hemlock+HOV2",
        }
    }

    fn words(&self) -> usize {
        self.words
    }

    fn locks(&self) -> usize {
        self.locks
    }

    fn initial_memory(&self) -> Vec<Val> {
        vec![0; self.words]
    }

    fn new_thread(&self, tid: usize) -> HemlockThread {
        HemlockThread {
            tid,
            pc: Pc::Idle,
            lock: 0,
            pred: 0,
        }
    }

    fn begin_acquire(&self, t: &mut HemlockThread, lock: usize) {
        debug_assert_eq!(t.pc, Pc::Idle);
        t.lock = lock;
        t.pred = 0;
        t.pc = match self.flavor {
            HemlockFlavor::Overlap => Pc::AcqResidual,
            _ => Pc::AcqSwap,
        };
    }

    fn begin_release(&self, t: &mut HemlockThread, lock: usize) {
        debug_assert_eq!(t.pc, Pc::Idle);
        t.lock = lock;
        t.pred = 0; // doubles as issue-sequencing scratch in release paths
        t.pc = match self.flavor {
            HemlockFlavor::Ah => Pc::RelAhCas, // publish happens first
            HemlockFlavor::V1 => Pc::RelV1Check,
            HemlockFlavor::V2 => Pc::RelV2Probe,
            _ => Pc::RelCas,
        };
    }

    fn step(&self, t: &mut HemlockThread, last: Val) -> AlgoStep {
        let l_pub = self.pub_val(t.lock);
        let l_tag = self.tag_val(t.lock);
        let me = self.grant(t.tid);
        match t.pc {
            Pc::Idle => unreachable!("step on idle Hemlock machine"),

            // ---------------- acquire ----------------
            Pc::AcqResidual => {
                // Listing 3 line 6: wait while Self.Grant == L.
                t.pc = Pc::AcqSwap;
                AlgoStep::Issue(
                    Op::Load(me),
                    Meta::SpinWait {
                        loc: me,
                        until: Until::Ne(l_pub),
                    },
                )
            }
            Pc::AcqSwap => {
                if self.flavor == HemlockFlavor::Overlap && last == l_pub {
                    // Residual still present: keep draining.
                    return AlgoStep::Issue(
                        Op::Load(me),
                        Meta::SpinWait {
                            loc: me,
                            until: Until::Ne(l_pub),
                        },
                    );
                }
                t.pc = Pc::AcqCheckPred;
                AlgoStep::Issue(
                    Op::Swap {
                        loc: self.tail(t.lock),
                        val: me as Val,
                    },
                    Meta::Doorstep { lock: t.lock },
                )
            }
            Pc::AcqCheckPred => {
                if last == 0 {
                    t.pc = Pc::Idle;
                    return AlgoStep::Done;
                }
                t.pred = last as Loc;
                if self.flavor == HemlockFlavor::V1 {
                    // Best-effort successor tag (Listing 5 line 9).
                    t.pc = Pc::AcqV1Marked;
                    return AlgoStep::Issue(
                        Op::Cas {
                            loc: t.pred,
                            expect: 0,
                            new: l_tag,
                        },
                        Meta::None,
                    );
                }
                t.pc = Pc::AcqSpin;
                self.spin_poll(t.pred, l_pub)
            }
            Pc::AcqV1Marked => {
                t.pc = Pc::AcqSpin;
                self.spin_poll(t.pred, l_pub)
            }
            Pc::AcqSpin => {
                if last == l_pub {
                    match self.flavor {
                        HemlockFlavor::Naive | HemlockFlavor::Overlap => {
                            // Observed the handover: ack with a store (the
                            // S→M upgrade CTR exists to avoid).
                            t.pc = Pc::AcqAckFini;
                            AlgoStep::Issue(Op::Store(t.pred, 0), Meta::None)
                        }
                        _ => {
                            // The successful CAS observed and acked at once.
                            t.pc = Pc::Idle;
                            AlgoStep::Done
                        }
                    }
                } else {
                    self.spin_poll(t.pred, l_pub)
                }
            }
            Pc::AcqAckFini => {
                t.pc = Pc::Idle;
                AlgoStep::Done
            }

            // ---------------- release ----------------
            Pc::RelAhCas => {
                // Listing 4 line 12: speculative publish, then the Tail CAS.
                t.pc = Pc::RelAhCheck;
                // First call: issue the publish store; the CAS is issued on
                // the next call. Encode via pred scratch: 0 = publish not
                // yet issued.
                if t.pred == 0 {
                    t.pred = 1;
                    return AlgoStep::Issue(Op::Store(me, l_pub), Meta::None);
                }
                unreachable!()
            }
            Pc::RelAhCheck => {
                if t.pred == 1 {
                    // Publish done: now the Tail CAS.
                    t.pred = 2;
                    return AlgoStep::Issue(
                        Op::Cas {
                            loc: self.tail(t.lock),
                            expect: me as Val,
                            new: 0,
                        },
                        Meta::None,
                    );
                }
                t.pred = 0;
                if last == me as Val {
                    // CAS succeeded: nobody saw the speculative grant.
                    t.pc = Pc::RelAhFini;
                    AlgoStep::Issue(Op::Store(me, 0), Meta::None)
                } else {
                    // Successor exists (or already drained everything —
                    // Tail may legitimately read 0 under AH).
                    t.pred = 1; // ack poll issued below
                    t.pc = Pc::RelSpin;
                    self.ack_poll(me, Until::Eq(0))
                }
            }
            Pc::RelAhFini => {
                t.pc = Pc::Idle;
                AlgoStep::Done
            }
            Pc::RelV1Check => {
                if t.pred == 0 {
                    t.pred = 1;
                    return AlgoStep::Issue(Op::Load(me), Meta::None);
                }
                t.pred = 0;
                if last == l_tag {
                    // Successor certain: skip Tail entirely.
                    t.pc = Pc::RelPublish;
                    // fall through by issuing the publish now
                    t.pc = Pc::RelSpin;
                    return AlgoStep::Issue(Op::Store(me, l_pub), Meta::None);
                }
                t.pc = Pc::RelCheckCas;
                AlgoStep::Issue(
                    Op::Cas {
                        loc: self.tail(t.lock),
                        expect: me as Val,
                        new: 0,
                    },
                    Meta::None,
                )
            }
            Pc::RelV2Probe => {
                if t.pred == 0 {
                    t.pred = 1;
                    return AlgoStep::Issue(Op::Load(self.tail(t.lock)), Meta::None);
                }
                t.pred = 0;
                if last != me as Val {
                    // Successors exist: pass without the futile CAS.
                    t.pc = Pc::RelSpin;
                    return AlgoStep::Issue(Op::Store(me, l_pub), Meta::None);
                }
                t.pc = Pc::RelCheckCas;
                AlgoStep::Issue(
                    Op::Cas {
                        loc: self.tail(t.lock),
                        expect: me as Val,
                        new: 0,
                    },
                    Meta::None,
                )
            }
            Pc::RelCas => {
                t.pc = Pc::RelCheckCas;
                AlgoStep::Issue(
                    Op::Cas {
                        loc: self.tail(t.lock),
                        expect: me as Val,
                        new: 0,
                    },
                    Meta::None,
                )
            }
            Pc::RelCheckCas => {
                if last == me as Val {
                    // Uncontended release.
                    t.pc = Pc::Idle;
                    AlgoStep::Done
                } else {
                    debug_assert_ne!(last, 0, "queue cannot empty behind the owner");
                    match self.flavor {
                        HemlockFlavor::Overlap => {
                            // Listing 3 line 16: drain our own residual
                            // before reusing the mailbox.
                            t.pc = Pc::RelDrain;
                            AlgoStep::Issue(
                                Op::Load(me),
                                Meta::SpinWait {
                                    loc: me,
                                    until: Until::Eq(0),
                                },
                            )
                        }
                        _ => {
                            t.pc = Pc::RelSpin;
                            AlgoStep::Issue(Op::Store(me, l_pub), Meta::None)
                        }
                    }
                }
            }
            Pc::RelDrain => {
                if last == 0 {
                    t.pc = Pc::RelOverlapFini;
                    AlgoStep::Issue(Op::Store(me, l_pub), Meta::None)
                } else {
                    AlgoStep::Issue(
                        Op::Load(me),
                        Meta::SpinWait {
                            loc: me,
                            until: Until::Eq(0),
                        },
                    )
                }
            }
            Pc::RelOverlapFini => {
                // Overlap returns immediately after the publish.
                t.pc = Pc::Idle;
                AlgoStep::Done
            }
            Pc::RelPublish => unreachable!("publish folded into flavor paths"),
            Pc::RelSpin => {
                // `last` here is either the publish-store result (0) on the
                // first call, or the poll result afterwards. Distinguish by
                // pred scratch.
                if t.pred == 0 {
                    t.pred = 1;
                    let until = if self.flavor == HemlockFlavor::V1 {
                        // Exit on any value other than L: the successor
                        // clears to null, but a waiter for another lock may
                        // immediately re-mark it L'|1 (module docs).
                        Until::Ne(l_pub)
                    } else {
                        Until::Eq(0)
                    };
                    return self.ack_poll(me, until);
                }
                let done = if self.flavor == HemlockFlavor::V1 {
                    last != l_pub
                } else {
                    last == 0
                };
                if done {
                    t.pred = 0;
                    t.pc = Pc::Idle;
                    AlgoStep::Done
                } else {
                    let until = if self.flavor == HemlockFlavor::V1 {
                        Until::Ne(l_pub)
                    } else {
                        Until::Eq(0)
                    };
                    self.ack_poll(me, until)
                }
            }
        }
    }

    fn data_word(&self, lock: usize) -> Loc {
        self.common.data(lock)
    }

    fn private_word(&self, tid: usize) -> Loc {
        self.common.private(tid)
    }

    fn grant_word(&self, tid: usize) -> Option<Loc> {
        Some(self.grant(tid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_is_one_swap() {
        for flavor in HemlockFlavor::ALL {
            let a = HemlockSim::new(1, 1, flavor);
            let mut t = a.new_thread(0);
            a.begin_acquire(&mut t, 0);
            // Overlap has the residual-drain prologue first.
            if flavor == HemlockFlavor::Overlap {
                let s = a.step(&mut t, 0);
                assert!(matches!(s, AlgoStep::Issue(Op::Load(_), _)), "{flavor:?}");
                let s = a.step(&mut t, 0); // grant is 0 ≠ pub: proceed
                assert!(
                    matches!(s, AlgoStep::Issue(Op::Swap { .. }, _)),
                    "{flavor:?}"
                );
            } else {
                let s = a.step(&mut t, 0);
                assert!(
                    matches!(s, AlgoStep::Issue(Op::Swap { .. }, Meta::Doorstep { .. })),
                    "{flavor:?}"
                );
            }
            assert_eq!(a.step(&mut t, 0), AlgoStep::Done, "{flavor:?}");
        }
    }

    #[test]
    fn pub_values_have_clear_low_bit() {
        let a = HemlockSim::new(2, 3, HemlockFlavor::V1);
        for l in 0..3 {
            assert_eq!(a.pub_val(l) & 1, 0);
            assert_eq!(a.tag_val(l), a.pub_val(l) | 1);
            assert_ne!(a.pub_val(l), 0);
        }
    }

    #[test]
    fn ah_release_publishes_before_touching_tail() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::Ah);
        let mut t = a.new_thread(0);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0);
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
        a.begin_release(&mut t, 0);
        // First operation must be the store into our own Grant.
        let s = a.step(&mut t, 0);
        match s {
            AlgoStep::Issue(Op::Store(loc, v), _) => {
                assert_eq!(loc, a.grant(0));
                assert_eq!(v, a.pub_val(0));
            }
            other => panic!("AH must publish first, got {other:?}"),
        }
        // Then the CAS.
        let s = a.step(&mut t, 0);
        assert!(matches!(s, AlgoStep::Issue(Op::Cas { .. }, _)));
        // CAS succeeded (returned our identity): retract.
        let s = a.step(&mut t, a.grant(0) as Val);
        assert!(matches!(s, AlgoStep::Issue(Op::Store(_, 0), _)));
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
    }

    #[test]
    fn v1_contended_acquire_marks_then_polls() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::V1);
        let mut t = a.new_thread(1);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0); // swap
        let s = a.step(&mut t, a.grant(0) as Val); // pred = thread 0
        match s {
            AlgoStep::Issue(Op::Cas { loc, expect, new }, Meta::None) => {
                assert_eq!(loc, a.grant(0));
                assert_eq!(expect, 0);
                assert_eq!(new, a.tag_val(0), "marker is L|1");
            }
            other => panic!("expected marker CAS, got {other:?}"),
        }
        // Then the real poll (CAS expecting the published address).
        let s = a.step(&mut t, 0);
        assert!(matches!(
            s,
            AlgoStep::Issue(Op::Cas { .. }, Meta::SpinWait { .. })
        ));
    }

    #[test]
    fn v1_tagged_release_skips_tail() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::V1);
        let mut t = a.new_thread(0);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0);
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
        a.begin_release(&mut t, 0);
        let s = a.step(&mut t, 0); // issue self-grant load
        assert!(matches!(s, AlgoStep::Issue(Op::Load(_), _)));
        // Pretend the successor tagged us: next op must be the publish
        // store to our own Grant, never a Tail access.
        let s = a.step(&mut t, a.tag_val(0));
        match s {
            AlgoStep::Issue(Op::Store(loc, v), _) => {
                assert_eq!(loc, a.grant(0));
                assert_eq!(v, a.pub_val(0));
            }
            other => panic!("tagged release must publish, got {other:?}"),
        }
        // Ack poll exits on any value ≠ L.
        let s = a.step(&mut t, 0);
        assert!(matches!(
            s,
            AlgoStep::Issue(
                Op::Faa { .. },
                Meta::SpinWait {
                    until: Until::Ne(_),
                    ..
                }
            )
        ));
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
    }

    #[test]
    fn v2_probe_sees_successor_and_passes() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::V2);
        let mut t = a.new_thread(0);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0);
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
        a.begin_release(&mut t, 0);
        let s = a.step(&mut t, 0); // issue the polite probe
        match s {
            AlgoStep::Issue(Op::Load(loc), _) => assert_eq!(loc, a.tail(0)),
            other => panic!("expected Tail probe, got {other:?}"),
        }
        // Probe sees a successor's identity: straight to publish.
        let s = a.step(&mut t, a.grant(1) as Val);
        assert!(matches!(s, AlgoStep::Issue(Op::Store(_, _), _)));
    }

    #[test]
    fn overlap_contended_release_has_no_ack_wait() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::Overlap);
        let mut t = a.new_thread(0);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0); // residual load
        let _ = a.step(&mut t, 0); // swap
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
        a.begin_release(&mut t, 0);
        let _ = a.step(&mut t, 0); // CAS
        let s = a.step(&mut t, a.grant(1) as Val); // CAS failed: successor
        assert!(
            matches!(s, AlgoStep::Issue(Op::Load(_), Meta::SpinWait { .. })),
            "drain"
        );
        let s = a.step(&mut t, 0); // residual already empty: publish
        assert!(matches!(s, AlgoStep::Issue(Op::Store(_, _), _)));
        // And the release completes WITHOUT waiting for the ack.
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
    }

    #[test]
    fn ctr_contended_waiter_polls_with_cas() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::Ctr);
        let mut t = a.new_thread(1);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0); // swap
        let s = a.step(&mut t, a.grant(0) as Val);
        assert!(matches!(
            s,
            AlgoStep::Issue(Op::Cas { .. }, Meta::SpinWait { .. })
        ));
        let s = a.step(&mut t, 0);
        assert!(matches!(
            s,
            AlgoStep::Issue(Op::Cas { .. }, Meta::SpinWait { .. })
        ));
        assert_eq!(a.step(&mut t, a.pub_val(0)), AlgoStep::Done);
    }

    #[test]
    fn naive_contended_waiter_polls_then_acks() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::Naive);
        let mut t = a.new_thread(1);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0);
        let s = a.step(&mut t, a.grant(0) as Val);
        assert!(matches!(
            s,
            AlgoStep::Issue(Op::Load(_), Meta::SpinWait { .. })
        ));
        let _ = a.step(&mut t, 0);
        let s = a.step(&mut t, a.pub_val(0));
        assert!(matches!(s, AlgoStep::Issue(Op::Store(_, 0), Meta::None)));
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
    }

    #[test]
    fn contended_release_publishes_then_spins() {
        let a = HemlockSim::new(2, 1, HemlockFlavor::Ctr);
        let mut t = a.new_thread(0);
        a.begin_acquire(&mut t, 0);
        let _ = a.step(&mut t, 0);
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
        a.begin_release(&mut t, 0);
        let _ = a.step(&mut t, 0); // issue CAS
        let s = a.step(&mut t, a.grant(1) as Val);
        assert!(matches!(s, AlgoStep::Issue(Op::Store(_, _), Meta::None)));
        let s = a.step(&mut t, 0);
        assert!(matches!(
            s,
            AlgoStep::Issue(Op::Faa { add: 0, .. }, Meta::SpinWait { .. })
        ));
        assert_eq!(a.step(&mut t, 0), AlgoStep::Done);
    }
}
