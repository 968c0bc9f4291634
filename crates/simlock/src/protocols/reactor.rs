//! Model of the epoll reactor's park and stop protocol
//! (`hemlock-harness::reactor` and `hemlock-net::aio`).
//!
//! The real protocol: a task whose nonblocking read returned `WouldBlock`
//! **stores** its waker in the fd's slot, **then** arms a level-triggered
//! one-shot registration, re-checks the reactor's stop flag, and retries
//! the read once before parking. The driver thread, for an armed fd that
//! is ready, disarms the registration (the kernel's one-shot), takes the
//! slot and wakes the waker in it. `stop` sets the flag, then takes and
//! wakes every slot. Two orderings carry the argument:
//!
//! - store → arm: any event the arming produces finds the waker in the
//!   slot; arming first lets the driver spend the one-shot on an empty
//!   slot;
//! - store → re-check stop, against the stopper's flag → take: either the
//!   stopper takes the stored waker, or the parker sees the flag.
//!
//! Four threads: a **parker** that reads until it observes stop (the
//! server's connection loop), a **peer** that makes the fd readable
//! `messages` times, the **driver**, and a **stopper**. Words: the fd
//! (buffered byte count, the armed registration's generation, and a
//! closed bit the parker sets on exit so the driver can finish), the
//! waker slot, the stop flag, and the parker's wake flag (parking is
//! spinning on it). Each park attempt has a generation: the armed field
//! holds the generation of the attempt that armed it, so the model can
//! tell which attempt an event belongs to.
//!
//! Invariant `no-lost-wakeup`: the driver never spends an event armed by
//! the parker's current attempt on an empty slot while no wake is on its
//! way (the wake flag clear and the stopper not about to set it). A lost
//! stop shows up as a deadlock: the parker parked with nothing left to
//! wake it.
//!
//! Bug knobs: [`ReactorBug::ArmBeforeStore`] arms the registration before
//! storing the waker; [`ReactorBug::SkipStopRecheck`] parks without
//! re-checking the stop flag after storing the waker.

use crate::algo::{AlgoStep, MemPlan};
use crate::op::{Loc, Meta, Op, Until, Val};
use crate::proto::{ProtoThread, ProtoViolation, ProtocolSim};

/// Deliberately-injected protocol bugs (for negative tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReactorBug {
    /// Correct protocol.
    #[default]
    None,
    /// The parker arms the one-shot registration before storing its waker.
    ArmBeforeStore,
    /// The parker parks without re-checking the stop flag.
    SkipStopRecheck,
}

/// Bytes buffered on the fd (low byte of the fd word).
const BUFFERED: Val = 0xff;
/// Shift of the armed registration's generation (0: disarmed).
const GEN_SHIFT: u32 = 8;
const GEN_MASK: Val = 0xff << GEN_SHIFT;
/// Set by the parker on exit; the driver finishes once it sees it.
const CLOSED: Val = 1 << 16;

fn armed_gen(fd: Val) -> Val {
    (fd & GEN_MASK) >> GEN_SHIFT
}

/// Configuration: one parker, one peer writing `messages` times, the
/// driver and one stopper (thread ids 0 to 3).
#[derive(Clone, Debug)]
pub struct ReactorSim {
    messages: u32,
    bug: ReactorBug,
    fd: Loc,
    slot: Loc,
    stop: Loc,
    wake: Loc,
    words: usize,
}

impl ReactorSim {
    /// Correct-protocol configuration.
    pub fn new(messages: u32) -> Self {
        Self::with_bug(messages, ReactorBug::None)
    }

    /// Configuration with an injected bug.
    pub fn with_bug(messages: u32, bug: ReactorBug) -> Self {
        assert!(messages < 0xff, "the buffered count is one byte");
        let mut plan = MemPlan::new();
        let fd = plan.alloc(1);
        let slot = plan.alloc(1);
        let stop = plan.alloc(1);
        let wake = plan.alloc(1);
        Self {
            messages,
            bug,
            fd,
            slot,
            stop,
            wake,
            words: plan.words(),
        }
    }

    /// Entry of a poll attempt (and of the re-check after parking): load
    /// the stop flag.
    fn check_stop(&self, t: &mut ReactorThread) -> AlgoStep {
        t.pc = Pc::StopDecide;
        AlgoStep::Issue(Op::Load(self.stop), Meta::None)
    }

    fn spin(&self, loc: Loc, until: Until) -> AlgoStep {
        AlgoStep::Issue(Op::Load(loc), Meta::SpinWait { loc, until })
    }

    /// Arm step of a park: begin the load/CAS loop that installs this
    /// attempt's generation in the fd word (epoll `MOD`: replaces any
    /// registration still armed).
    fn arm(&self, t: &mut ReactorThread) -> AlgoStep {
        t.pc = Pc::ArmLoad;
        AlgoStep::Issue(Op::Load(self.fd), Meta::None)
    }

    fn store_waker(&self, t: &mut ReactorThread) -> AlgoStep {
        t.pc = Pc::Stored;
        AlgoStep::Issue(Op::Store(self.slot, 1), Meta::None)
    }

    /// Both halves of the park done: re-check stop, or (under the bug)
    /// go straight to the retry.
    fn parked(&self, t: &mut ReactorThread) -> AlgoStep {
        t.retried = true;
        if self.bug == ReactorBug::SkipStopRecheck {
            t.pc = Pc::ReadDecide;
            AlgoStep::Issue(Op::Load(self.fd), Meta::None)
        } else {
            self.check_stop(t)
        }
    }

    fn parker_step(&self, t: &mut ReactorThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => self.check_stop(t),
            Pc::StopDecide => {
                if last != 0 {
                    t.waiting = false;
                    t.saw_stop = true;
                    t.pc = Pc::Exiting;
                    AlgoStep::Issue(
                        Op::Faa {
                            loc: self.fd,
                            add: CLOSED,
                        },
                        Meta::None,
                    )
                } else {
                    t.pc = Pc::ReadDecide;
                    AlgoStep::Issue(Op::Load(self.fd), Meta::None)
                }
            }
            Pc::ReadDecide => {
                if last & BUFFERED != 0 {
                    // The read returns a byte: consume it (only the parker
                    // decrements, so the load above is still current).
                    t.waiting = false;
                    t.pc = Pc::Consumed;
                    AlgoStep::Issue(
                        Op::Faa {
                            loc: self.fd,
                            add: Val::MAX,
                        },
                        Meta::None,
                    )
                } else if t.retried {
                    t.pc = Pc::Parked;
                    self.spin(self.wake, Until::Ne(0))
                } else {
                    // WouldBlock: a fresh park attempt.
                    t.gen += 1;
                    t.pc = Pc::Cleared;
                    AlgoStep::Issue(Op::Store(self.wake, 0), Meta::None)
                }
            }
            Pc::Consumed => {
                t.got += 1;
                t.retried = false;
                self.check_stop(t)
            }
            Pc::Cleared => {
                if self.bug == ReactorBug::ArmBeforeStore {
                    self.arm(t)
                } else {
                    self.store_waker(t)
                }
            }
            Pc::Stored => {
                if self.bug == ReactorBug::ArmBeforeStore {
                    self.parked(t)
                } else {
                    self.arm(t)
                }
            }
            Pc::ArmLoad => {
                t.pc = Pc::ArmDecide;
                t.seen = last;
                AlgoStep::Issue(
                    Op::Cas {
                        loc: self.fd,
                        expect: last,
                        new: (last & !GEN_MASK) | (t.gen << GEN_SHIFT),
                    },
                    Meta::None,
                )
            }
            Pc::ArmDecide => {
                if last != t.seen {
                    return self.arm(t);
                }
                t.waiting = true;
                if self.bug == ReactorBug::ArmBeforeStore {
                    self.store_waker(t)
                } else {
                    self.parked(t)
                }
            }
            Pc::Parked => {
                if last != 0 {
                    // Woken: poll again from the top.
                    t.waiting = false;
                    t.retried = false;
                    self.check_stop(t)
                } else {
                    self.spin(self.wake, Until::Ne(0))
                }
            }
            Pc::Exiting => AlgoStep::Done,
            _ => unreachable!("parker at {:?}", t.pc),
        }
    }

    fn peer_step(&self, t: &mut ReactorThread) -> AlgoStep {
        if t.got >= self.messages {
            return AlgoStep::Done;
        }
        t.got += 1;
        AlgoStep::Issue(
            Op::Faa {
                loc: self.fd,
                add: 1,
            },
            Meta::None,
        )
    }

    fn driver_watch(&self, t: &mut ReactorThread) -> AlgoStep {
        t.pc = Pc::Watch;
        self.spin(self.fd, Until::Ne(0))
    }

    fn driver_step(&self, t: &mut ReactorThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => self.driver_watch(t),
            Pc::Watch => {
                if last & CLOSED != 0 {
                    AlgoStep::Done
                } else if armed_gen(last) != 0 && last & BUFFERED != 0 {
                    // An armed, ready fd: the kernel reports it once and
                    // disarms the one-shot.
                    t.pc = Pc::Disarm;
                    t.seen = last;
                    AlgoStep::Issue(
                        Op::Cas {
                            loc: self.fd,
                            expect: last,
                            new: last & !GEN_MASK,
                        },
                        Meta::None,
                    )
                } else {
                    self.spin(self.fd, Until::Ne(last))
                }
            }
            Pc::Disarm => {
                if last != t.seen {
                    return self.driver_watch(t);
                }
                t.gen = armed_gen(last);
                t.pc = Pc::Took;
                AlgoStep::Issue(
                    Op::Swap {
                        loc: self.slot,
                        val: 0,
                    },
                    Meta::None,
                )
            }
            Pc::Took => {
                if last != 0 {
                    t.pc = Pc::Woke;
                    AlgoStep::Issue(Op::Store(self.wake, 1), Meta::None)
                } else {
                    // The event reached an empty slot: `check` decides
                    // whether a wake was lost.
                    t.pc = Pc::Wasted;
                    AlgoStep::Issue(Op::Load(self.fd), Meta::None)
                }
            }
            Pc::Woke => self.driver_watch(t),
            Pc::Wasted => {
                t.pc = Pc::Watch;
                self.driver_step(t, last)
            }
            _ => unreachable!("driver at {:?}", t.pc),
        }
    }

    fn stopper_step(&self, t: &mut ReactorThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => {
                t.pc = Pc::StopSet;
                AlgoStep::Issue(Op::Store(self.stop, 1), Meta::None)
            }
            Pc::StopSet => {
                t.pc = Pc::Took;
                AlgoStep::Issue(
                    Op::Swap {
                        loc: self.slot,
                        val: 0,
                    },
                    Meta::None,
                )
            }
            Pc::Took if last != 0 => {
                t.pc = Pc::Woke;
                AlgoStep::Issue(Op::Store(self.wake, 1), Meta::None)
            }
            Pc::Took | Pc::Woke => AlgoStep::Done,
            _ => unreachable!("stopper at {:?}", t.pc),
        }
    }
}

/// A thread's part in the scenario (by thread id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReactorRole {
    /// Reads until it observes stop, parking through the reactor.
    Parker,
    /// Makes the fd readable.
    Peer,
    /// The reactor's driver thread.
    Driver,
    /// Calls `Reactor::stop`.
    Stopper,
}

/// Program counter (shared by the four roles; each uses its own subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Start,
    /// Parker: `last` = the stop flag (entry check or re-check).
    StopDecide,
    /// Parker: `last` = the fd word (read attempt or retry).
    ReadDecide,
    /// Parker: a byte was consumed; poll again.
    Consumed,
    /// Parker: the wake flag is cleared; store and arm next.
    Cleared,
    /// Parker: the waker is in the slot.
    Stored,
    /// Parker: `last` = the fd word to re-arm.
    ArmLoad,
    /// Parker: `last` = the arm CAS's witness.
    ArmDecide,
    /// Parker: `last` = the wake-flag poll.
    Parked,
    /// Parker: the closed bit is set; finish.
    Exiting,
    /// Driver: `last` = the fd word.
    Watch,
    /// Driver: `last` = the disarm CAS's witness.
    Disarm,
    /// Driver and stopper: `last` = the slot taken.
    Took,
    /// Driver and stopper: the wake flag is set.
    Woke,
    /// Driver: the event it fired found the slot empty.
    Wasted,
    /// Stopper: the flag is set; take the slot next.
    StopSet,
}

/// Per-thread machine state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReactorThread {
    role: ReactorRole,
    pc: Pc,
    /// Parker: the current park attempt; driver: the attempt whose
    /// registration it fired last.
    gen: Val,
    /// Parker: bytes read; peer: messages sent.
    got: u32,
    /// Parker: armed in this attempt and not yet woken or satisfied.
    waiting: bool,
    /// Parker: this poll already parked, so the next `WouldBlock` parks.
    retried: bool,
    /// Parker: finished by observing stop.
    saw_stop: bool,
    /// Expected value of an in-flight CAS.
    seen: Val,
}

impl ReactorThread {
    /// The thread's role.
    pub fn role(&self) -> ReactorRole {
        self.role
    }
}

impl ProtocolSim for ReactorSim {
    type Thread = ReactorThread;

    fn name(&self) -> &'static str {
        "reactor-park-stop"
    }

    fn threads(&self) -> usize {
        4
    }

    fn words(&self) -> usize {
        self.words
    }

    fn new_thread(&self, tid: usize) -> ReactorThread {
        let role = match tid {
            0 => ReactorRole::Parker,
            1 => ReactorRole::Peer,
            2 => ReactorRole::Driver,
            _ => ReactorRole::Stopper,
        };
        ReactorThread {
            role,
            pc: Pc::Start,
            gen: 0,
            got: 0,
            waiting: false,
            retried: false,
            saw_stop: false,
            seen: 0,
        }
    }

    fn step(&self, t: &mut ReactorThread, last: Val) -> AlgoStep {
        match t.role {
            ReactorRole::Parker => self.parker_step(t, last),
            ReactorRole::Peer => self.peer_step(t),
            ReactorRole::Driver => self.driver_step(t, last),
            ReactorRole::Stopper => self.stopper_step(t, last),
        }
    }

    fn check(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<ReactorThread>],
    ) -> Result<(), ProtoViolation> {
        let (parker, driver, stopper) = (&threads[0], &threads[2], &threads[3]);
        let stop_delivering = stopper.state.pc == Pc::Woke && !stopper.done;
        let wasted = driver.state.pc == Pc::Wasted && !driver.done;
        if wasted
            && parker.state.waiting
            && parker.state.gen == driver.state.gen
            && mem[self.wake] == 0
            && !stop_delivering
        {
            return Err(ProtoViolation {
                invariant: "no-lost-wakeup",
                detail: format!(
                    "the driver spent park attempt {}'s event on an empty slot; \
                     nothing will wake the parker",
                    driver.state.gen
                ),
            });
        }
        Ok(())
    }

    fn check_terminal(
        &self,
        _mem: &[Val],
        threads: &[ProtoThread<ReactorThread>],
    ) -> Result<(), ProtoViolation> {
        let parker = &threads[0].state;
        if !parker.saw_stop || parker.got > self.messages {
            return Err(ProtoViolation {
                invariant: "reader-ends-on-stop",
                detail: format!(
                    "parker finished with saw_stop={} after {} of {} bytes",
                    parker.saw_stop, parker.got, self.messages
                ),
            });
        }
        Ok(())
    }

    fn invariants(&self) -> &'static [&'static str] {
        &["no-lost-wakeup", "reader-ends-on-stop"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProtoWorld;

    #[test]
    fn round_robin_completes() {
        let mut w = ProtoWorld::new(ReactorSim::new(2));
        w.run_round_robin(100_000).expect("terminates");
        assert!(w.check_terminal_now().is_ok());
    }

    #[test]
    fn random_schedules_complete_clean() {
        for seed in 0..20 {
            let mut w = ProtoWorld::new(ReactorSim::new(2));
            w.run_random(seed, 1_000_000).expect("terminates");
            assert!(w.check_now().is_ok());
            assert!(w.check_terminal_now().is_ok());
        }
    }
}
