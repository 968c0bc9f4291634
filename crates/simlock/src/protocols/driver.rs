//! Model of who waits in a reactor's epoll (`hemlock-harness::executor`
//! and `hemlock-harness::reactor`).
//!
//! The real protocol: an executor thread with nothing to poll waits in
//! its home reactor's epoll while it holds the reactor's driving token.
//!
//! - An idle pool worker that takes the token publishes itself as the
//!   pool's leader in the queue-lock critical section that found the
//!   queue empty, then waits. A push wakes an idle worker if there is
//!   one, else writes the leader's eventfd.
//! - The `block_on` thread sets its `driving` word, then re-checks its
//!   notified flag before it waits. Its waker sets the flag, then writes
//!   the eventfd if the thread is driving and unparks it otherwise.
//! - A thread that finds the token held registers as a follower, retries
//!   the token once, and sleeps the usual way. A thread that leaves for
//!   good wakes the followers.
//!
//! Four threads: a pool **worker** that must run two tasks (one pushed,
//! one parked on socket S) and then leaves; a **pusher** that spawns the
//! first task; a **follower**, `block_on` over a future only the peer
//! completes, which then leaves; and the **peer**, which completes the
//! follower's future (sets `fired`, then calls its waker) and then makes
//! socket S ready. Words: the queue lock, queued tasks, the idle and
//! condvar words, the published leader, the driving token, the epoll
//! (eventfd count in the low byte, S's one-shot readiness above it), a
//! follower registration word per sleeper, and the follower's notified,
//! driving, park and fired words. Waiting in epoll, on the condvar or in
//! `park` is spinning on one word.
//!
//! Simplification: the leader's harvest push and its re-lock to clear
//! the leader are one critical section.
//!
//! Invariant `no-lost-wakeup`: no push decides to rouse nobody while the
//! worker is committed to waiting in epoll (it found the queue empty and
//! holds the token), and the follower never waits in epoll with its
//! notified flag set while no waker is still about to write the eventfd
//! and the epoll word is clear. A hand-off that never comes shows as a
//! deadlock. Terminal invariant `every-task-runs`: the worker ran both
//! tasks and the follower's `block_on` returned.
//!
//! Bug knobs: [`DriverBug::LeaderPublishedLate`] publishes the leader
//! after the queue lock is dropped; [`DriverBug::NoHandOffOnLeave`]
//! leaves without waking the followers; [`DriverBug::UnparkWhileDriving`]
//! unparks the follower without checking whether it waits in epoll.

use crate::algo::{AlgoStep, MemPlan};
use crate::op::{Loc, Meta, Op, Until, Val};
use crate::proto::{ProtoThread, ProtoViolation, ProtocolSim};

/// Deliberately-injected protocol bugs (for negative tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DriverBug {
    /// Correct protocol.
    #[default]
    None,
    /// The worker publishes itself as leader after dropping the queue
    /// lock, so a push can land between the empty check and the
    /// publication.
    LeaderPublishedLate,
    /// A thread that leaves does not wake the reactor's followers.
    NoHandOffOnLeave,
    /// The follower's waker unparks it even while it waits in epoll.
    UnparkWhileDriving,
}

/// One eventfd write, in the epoll word.
const EFD: Val = 1;
/// Socket S ready with its one-shot armed, in the epoll word.
const SOCK: Val = 1 << 8;
/// Tasks the worker runs: the pushed one and the socket one.
const TASKS: u32 = 2;

/// A thread's part in the scenario (by thread id).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DriverRole {
    /// A pool worker: leads from the epoll or sleeps on the condvar.
    Worker,
    /// Spawns one task onto the pool.
    Pusher,
    /// A `block_on` thread sharing the reactor.
    Follower,
    /// Completes the follower's future, then makes socket S ready.
    Peer,
}

/// Program counter: names the operation the thread has issued next
/// (each role uses its own subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Pc {
    Start,
    /// Load of the queue lock (spinning until free).
    LockWait,
    /// CAS of the queue lock.
    LockCas,
    /// Worker: load of the queued-task count (lock held).
    Tasks,
    /// Worker: decrement of the count (pop).
    Pop,
    /// Worker: unlock after the pop.
    PopUnlock,
    /// Worker and follower: CAS of the driving token.
    Token,
    /// Worker and follower: store of its follower registration.
    Follow,
    /// Worker and follower: the CAS retry after registering.
    Retry,
    /// Worker: store publishing the leader.
    Publish,
    /// Worker: unlock before the epoll wait.
    LeadUnlock,
    /// Worker: store publishing the leader after the unlock (knob).
    LatePublish,
    /// Worker and follower: load of the epoll word (spinning).
    Epoll,
    /// Worker and follower: swap draining the epoll word.
    Harvest,
    /// Worker: increment queueing socket S's task (lock held).
    Requeue,
    /// Worker: store clearing the leader (lock held).
    ClearLeader,
    /// Worker: store releasing the token (lock held).
    Release,
    /// Worker: store marking itself idle (lock held).
    MarkIdle,
    /// Worker: unlock before the condvar wait.
    IdleUnlock,
    /// Worker: load of the condvar word (spinning).
    CondWait,
    /// Worker: store clearing idle (lock held, woken).
    Unidle,
    /// Worker: store consuming the condvar word (lock held).
    ConsumeCv,
    /// Pusher and follower: increment of the task count (lock held).
    Push,
    /// Pusher and follower: load of the idle word.
    SawIdle,
    /// Pusher and follower: load of the leader word.
    SawLeader,
    /// Pusher and follower: unlock after the push.
    PushUnlock,
    /// Pusher and follower: the rouse (condvar store or eventfd write).
    Rouse,
    /// Follower: load of the fired word (the future's poll).
    Poll,
    /// Follower: swap consuming the notified flag.
    Notified,
    /// Follower: store setting the driving word.
    Drive,
    /// Follower: load of the notified flag while driving.
    Recheck,
    /// Follower: store clearing the driving word.
    Undrive,
    /// Follower: store releasing the token.
    Unlead,
    /// Follower: load of the park word (spinning).
    Park,
    /// Follower: store consuming the park word.
    Unpark,
    /// Worker and follower: swap taking the other's registration.
    Leave,
    /// Follower: store notifying the pool's condvar (lock held).
    NotifyPool,
    /// Follower: unlock after notifying the pool.
    NotifyUnlock,
    /// A waker call on the follower: store of its notified flag.
    WakeFlag,
    /// The waker: load of the follower's driving word.
    WakeLoad,
    /// The waker: eventfd write (the follower drives).
    WakeEfd,
    /// The waker: store of the follower's park word.
    WakeUnpark,
    /// Peer: socket S becomes ready.
    Sock,
}

/// What a thread does once it holds the queue lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Locked {
    /// Worker: check the queue.
    Check,
    /// Worker: harvested socket S; queue its task.
    Requeue,
    /// Worker: harvested no task; clear the leader.
    Clear,
    /// Worker: woken from the condvar.
    Woken,
    /// Pusher or follower: push a task.
    Push,
    /// Follower: the pool's follower waker (notify all idle workers).
    Notify,
}

/// Per-thread machine state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct DriverThread {
    role: DriverRole,
    pc: Pc,
    /// What to do once the queue lock is held.
    then: Locked,
    /// Worker: tasks run. Follower: 1 once its future resolved.
    ran: u32,
    /// Worker and follower: found nothing to do and hold the token, so
    /// they are headed into (or in) the epoll wait.
    committed: bool,
    /// Pusher: inside its critical section, decided to rouse nobody.
    roused_none: bool,
    /// A push: the rouse chosen under the lock (0 none, 1 idle worker,
    /// 2 leader).
    rouse: u8,
}

impl DriverThread {
    /// The thread's role.
    pub fn role(&self) -> DriverRole {
        self.role
    }
}

/// Configuration: worker, pusher, follower and peer (thread ids 0 to 3).
#[derive(Clone, Debug)]
pub struct DriverSim {
    bug: DriverBug,
    qlock: Loc,
    tasks: Loc,
    idle: Loc,
    cv: Loc,
    leader: Loc,
    token: Loc,
    ep: Loc,
    fol_pool: Loc,
    fol_b: Loc,
    notified: Loc,
    driving: Loc,
    park: Loc,
    fired: Loc,
    words: usize,
}

fn go(t: &mut DriverThread, pc: Pc, op: Op) -> AlgoStep {
    t.pc = pc;
    AlgoStep::Issue(op, Meta::None)
}

fn spin(t: &mut DriverThread, pc: Pc, loc: Loc, until: Until) -> AlgoStep {
    t.pc = pc;
    AlgoStep::Issue(Op::Load(loc), Meta::SpinWait { loc, until })
}

impl DriverSim {
    /// Correct-protocol configuration.
    pub fn new() -> Self {
        Self::with_bug(DriverBug::None)
    }

    /// Configuration with an injected bug.
    pub fn with_bug(bug: DriverBug) -> Self {
        let mut plan = MemPlan::new();
        let mut word = || plan.alloc(1);
        let (qlock, tasks, idle, cv, leader, token) =
            (word(), word(), word(), word(), word(), word());
        let (ep, fol_pool, fol_b, notified, driving, park, fired) =
            (word(), word(), word(), word(), word(), word(), word());
        Self {
            bug,
            qlock,
            tasks,
            idle,
            cv,
            leader,
            token,
            ep,
            fol_pool,
            fol_b,
            notified,
            driving,
            park,
            fired,
            words: plan.words(),
        }
    }

    fn lock(&self, t: &mut DriverThread, then: Locked) -> AlgoStep {
        t.then = then;
        spin(t, Pc::LockWait, self.qlock, Until::Eq(0))
    }

    fn unlock(&self, t: &mut DriverThread, pc: Pc) -> AlgoStep {
        go(t, pc, Op::Store(self.qlock, 0))
    }

    fn cas(loc: Loc) -> Op {
        Op::Cas {
            loc,
            expect: 0,
            new: 1,
        }
    }

    /// The queue-lock steps every role shares: `Ok(step)` while
    /// acquiring, `Err(then)` once the lock is held.
    fn lock_step(&self, t: &mut DriverThread, last: Val) -> Result<AlgoStep, Locked> {
        match t.pc {
            Pc::LockWait if last == 0 => Ok(go(t, Pc::LockCas, Self::cas(self.qlock))),
            Pc::LockWait => Ok(spin(t, Pc::LockWait, self.qlock, Until::Eq(0))),
            Pc::LockCas if last != 0 => Ok(self.lock(t, t.then)),
            Pc::LockCas => Err(t.then),
            _ => unreachable!("not locking at {:?}", t.pc),
        }
    }

    fn epoll(&self, t: &mut DriverThread) -> AlgoStep {
        spin(t, Pc::Epoll, self.ep, Until::Ne(0))
    }

    fn harvest(&self, t: &mut DriverThread) -> AlgoStep {
        go(
            t,
            Pc::Harvest,
            Op::Swap {
                loc: self.ep,
                val: 0,
            },
        )
    }

    fn efd(&self, t: &mut DriverThread, pc: Pc) -> AlgoStep {
        go(
            t,
            pc,
            Op::Faa {
                loc: self.ep,
                add: EFD,
            },
        )
    }

    /// The waker the follower registered with the peer and as a
    /// follower (`block_on`'s): sets its flag, then writes the eventfd if
    /// the follower drives and unparks it otherwise.
    fn wake_follower(&self, t: &mut DriverThread) -> AlgoStep {
        go(t, Pc::WakeFlag, Op::Store(self.notified, 1))
    }

    /// Steps of a waker call; `None` once it is done.
    fn wake_step(&self, t: &mut DriverThread, last: Val) -> Option<AlgoStep> {
        Some(match t.pc {
            Pc::WakeFlag if self.bug == DriverBug::UnparkWhileDriving => {
                go(t, Pc::WakeUnpark, Op::Store(self.park, 1))
            }
            Pc::WakeFlag => go(t, Pc::WakeLoad, Op::Load(self.driving)),
            Pc::WakeLoad if last != 0 => self.efd(t, Pc::WakeEfd),
            Pc::WakeLoad => go(t, Pc::WakeUnpark, Op::Store(self.park, 1)),
            Pc::WakeEfd | Pc::WakeUnpark => return None,
            _ => unreachable!("not waking at {:?}", t.pc),
        })
    }

    /// A push under the queue lock (the pusher, and the follower queueing
    /// socket S's task): read idle and the leader, unlock, then rouse.
    /// `None` once it is done.
    fn push_step(&self, t: &mut DriverThread, last: Val) -> Option<AlgoStep> {
        Some(match t.pc {
            Pc::Push => go(t, Pc::SawIdle, Op::Load(self.idle)),
            Pc::SawIdle => {
                t.rouse = u8::from(last != 0);
                go(t, Pc::SawLeader, Op::Load(self.leader))
            }
            Pc::SawLeader => {
                if t.rouse == 0 && last != 0 {
                    t.rouse = 2;
                }
                t.roused_none = t.rouse == 0 && t.role == DriverRole::Pusher;
                self.unlock(t, Pc::PushUnlock)
            }
            Pc::PushUnlock => {
                t.roused_none = false;
                match std::mem::take(&mut t.rouse) {
                    1 => go(t, Pc::Rouse, Op::Store(self.cv, 1)),
                    2 => self.efd(t, Pc::Rouse),
                    _ => return None,
                }
            }
            Pc::Rouse => return None,
            _ => unreachable!("not pushing at {:?}", t.pc),
        })
    }

    fn worker_step(&self, t: &mut DriverThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => self.lock(t, Locked::Check),
            Pc::LockWait | Pc::LockCas => match self.lock_step(t, last) {
                Ok(step) => step,
                Err(Locked::Check) => self.check_tasks(t),
                Err(Locked::Requeue) => go(
                    t,
                    Pc::Requeue,
                    Op::Faa {
                        loc: self.tasks,
                        add: 1,
                    },
                ),
                Err(Locked::Clear) => go(t, Pc::ClearLeader, Op::Store(self.leader, 0)),
                Err(Locked::Woken) => go(t, Pc::Unidle, Op::Store(self.idle, 0)),
                Err(other) => unreachable!("worker locked for {other:?}"),
            },
            Pc::Tasks if last > 0 => go(
                t,
                Pc::Pop,
                Op::Faa {
                    loc: self.tasks,
                    add: Val::MAX,
                },
            ),
            Pc::Tasks => go(t, Pc::Token, Self::cas(self.token)),
            Pc::Pop => {
                t.ran += 1;
                self.unlock(t, Pc::PopUnlock)
            }
            Pc::PopUnlock if t.ran < TASKS => self.lock(t, Locked::Check),
            Pc::PopUnlock if self.bug == DriverBug::NoHandOffOnLeave => AlgoStep::Done,
            // The pool drops: the worker leaves the reactor for good.
            Pc::PopUnlock => go(
                t,
                Pc::Leave,
                Op::Swap {
                    loc: self.fol_b,
                    val: 0,
                },
            ),
            Pc::Token | Pc::Retry if last == 0 => {
                // The queue was found empty and the token taken in one
                // critical section.
                t.committed = true;
                if self.bug == DriverBug::LeaderPublishedLate {
                    self.unlock(t, Pc::LeadUnlock)
                } else {
                    go(t, Pc::Publish, Op::Store(self.leader, 1))
                }
            }
            Pc::Token => go(t, Pc::Follow, Op::Store(self.fol_pool, 1)),
            Pc::Follow => go(t, Pc::Retry, Self::cas(self.token)),
            Pc::Retry => go(t, Pc::MarkIdle, Op::Store(self.idle, 1)),
            Pc::Publish => self.unlock(t, Pc::LeadUnlock),
            Pc::LeadUnlock if self.bug == DriverBug::LeaderPublishedLate => {
                go(t, Pc::LatePublish, Op::Store(self.leader, 1))
            }
            Pc::LeadUnlock | Pc::LatePublish => self.epoll(t),
            Pc::Epoll if last == 0 => self.epoll(t),
            Pc::Epoll => self.harvest(t),
            Pc::Harvest => {
                t.committed = false;
                if last & SOCK != 0 {
                    self.lock(t, Locked::Requeue)
                } else {
                    self.lock(t, Locked::Clear)
                }
            }
            Pc::Requeue => go(t, Pc::ClearLeader, Op::Store(self.leader, 0)),
            Pc::ClearLeader => go(t, Pc::Release, Op::Store(self.token, 0)),
            Pc::Release | Pc::ConsumeCv => self.check_tasks(t),
            Pc::MarkIdle => self.unlock(t, Pc::IdleUnlock),
            Pc::IdleUnlock => spin(t, Pc::CondWait, self.cv, Until::Ne(0)),
            Pc::CondWait if last == 0 => spin(t, Pc::CondWait, self.cv, Until::Ne(0)),
            Pc::CondWait => self.lock(t, Locked::Woken),
            Pc::Unidle => go(t, Pc::ConsumeCv, Op::Store(self.cv, 0)),
            Pc::Leave if last != 0 => self.wake_follower(t),
            Pc::Leave => AlgoStep::Done,
            _ => self.wake_step(t, last).unwrap_or(AlgoStep::Done),
        }
    }

    fn check_tasks(&self, t: &mut DriverThread) -> AlgoStep {
        go(t, Pc::Tasks, Op::Load(self.tasks))
    }

    fn pusher_step(&self, t: &mut DriverThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => self.lock(t, Locked::Push),
            Pc::LockWait | Pc::LockCas => match self.lock_step(t, last) {
                Ok(step) => step,
                Err(_) => self.push(t),
            },
            _ => self.push_step(t, last).unwrap_or(AlgoStep::Done),
        }
    }

    fn push(&self, t: &mut DriverThread) -> AlgoStep {
        go(
            t,
            Pc::Push,
            Op::Faa {
                loc: self.tasks,
                add: 1,
            },
        )
    }

    /// `block_on` polls its future: ready once the peer fired.
    fn poll(&self, t: &mut DriverThread) -> AlgoStep {
        go(t, Pc::Poll, Op::Load(self.fired))
    }

    /// `block_on`'s wait loop entry: consume the flag.
    fn wait(&self, t: &mut DriverThread) -> AlgoStep {
        go(
            t,
            Pc::Notified,
            Op::Swap {
                loc: self.notified,
                val: 0,
            },
        )
    }

    fn recheck(&self, t: &mut DriverThread) -> AlgoStep {
        go(t, Pc::Recheck, Op::Load(self.notified))
    }

    fn follower_step(&self, t: &mut DriverThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => self.poll(t),
            Pc::Poll if last != 0 => {
                t.ran = 1;
                // `block_on` returns: the thread leaves the reactor.
                if self.bug == DriverBug::NoHandOffOnLeave {
                    return AlgoStep::Done;
                }
                go(
                    t,
                    Pc::Leave,
                    Op::Swap {
                        loc: self.fol_pool,
                        val: 0,
                    },
                )
            }
            Pc::Poll | Pc::Unlead | Pc::Unpark => self.wait(t),
            Pc::Notified if last != 0 => self.poll(t),
            Pc::Notified => go(t, Pc::Token, Self::cas(self.token)),
            Pc::Token | Pc::Retry if last == 0 => go(t, Pc::Drive, Op::Store(self.driving, 1)),
            Pc::Token => go(t, Pc::Follow, Op::Store(self.fol_b, 1)),
            Pc::Follow => go(t, Pc::Retry, Self::cas(self.token)),
            Pc::Retry => spin(t, Pc::Park, self.park, Until::Ne(0)),
            Pc::Park if last == 0 => spin(t, Pc::Park, self.park, Until::Ne(0)),
            Pc::Park => go(t, Pc::Unpark, Op::Store(self.park, 0)),
            Pc::Drive => self.recheck(t),
            Pc::Recheck if last != 0 => go(t, Pc::Undrive, Op::Store(self.driving, 0)),
            Pc::Recheck => {
                t.committed = true;
                self.epoll(t)
            }
            Pc::Epoll if last == 0 => self.epoll(t),
            Pc::Epoll => self.harvest(t),
            Pc::Harvest => {
                t.committed = false;
                if last & SOCK != 0 {
                    // Socket S's task goes to the pool: a plain push.
                    self.lock(t, Locked::Push)
                } else {
                    self.recheck(t)
                }
            }
            Pc::Undrive => go(t, Pc::Unlead, Op::Store(self.token, 0)),
            Pc::LockWait | Pc::LockCas => match self.lock_step(t, last) {
                Ok(step) => step,
                Err(Locked::Push) => self.push(t),
                // The pool's follower waker: notify under the lock.
                Err(_) => go(t, Pc::NotifyPool, Op::Store(self.cv, 1)),
            },
            Pc::Leave if last != 0 => self.lock(t, Locked::Notify),
            Pc::NotifyPool => self.unlock(t, Pc::NotifyUnlock),
            Pc::Leave | Pc::NotifyUnlock => AlgoStep::Done,
            _ => match self.push_step(t, last) {
                Some(step) => step,
                // Pushed: back to the turn loop's flag check.
                None => self.recheck(t),
            },
        }
    }

    fn peer_step(&self, t: &mut DriverThread, last: Val) -> AlgoStep {
        match t.pc {
            Pc::Start => go(t, Pc::Poll, Op::Store(self.fired, 1)),
            Pc::Poll => self.wake_follower(t),
            Pc::Sock => AlgoStep::Done,
            _ => self.wake_step(t, last).unwrap_or_else(|| {
                go(
                    t,
                    Pc::Sock,
                    Op::Faa {
                        loc: self.ep,
                        add: SOCK,
                    },
                )
            }),
        }
    }
}

impl Default for DriverSim {
    fn default() -> Self {
        Self::new()
    }
}

impl ProtocolSim for DriverSim {
    type Thread = DriverThread;

    fn name(&self) -> &'static str {
        "driver-leader-follower"
    }

    fn threads(&self) -> usize {
        4
    }

    fn words(&self) -> usize {
        self.words
    }

    fn new_thread(&self, tid: usize) -> DriverThread {
        let role = match tid {
            0 => DriverRole::Worker,
            1 => DriverRole::Pusher,
            2 => DriverRole::Follower,
            _ => DriverRole::Peer,
        };
        DriverThread {
            role,
            pc: Pc::Start,
            then: Locked::Check,
            ran: 0,
            committed: false,
            roused_none: false,
            rouse: 0,
        }
    }

    fn step(&self, t: &mut DriverThread, last: Val) -> AlgoStep {
        match t.role {
            DriverRole::Worker => self.worker_step(t, last),
            DriverRole::Pusher => self.pusher_step(t, last),
            DriverRole::Follower => self.follower_step(t, last),
            DriverRole::Peer => self.peer_step(t, last),
        }
    }

    fn check(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<DriverThread>],
    ) -> Result<(), ProtoViolation> {
        let (worker, pusher, follower) = (&threads[0].state, &threads[1].state, &threads[2].state);
        if pusher.roused_none && worker.committed {
            return Err(ProtoViolation {
                invariant: "no-lost-wakeup",
                detail: "a push found no idle worker and no leader while the worker \
                         was committed to waiting in epoll"
                    .into(),
            });
        }
        // The follower waits in epoll with its flag set: some waker must
        // still be about to write the eventfd, or have written it.
        let efd_coming = threads
            .iter()
            .any(|t| matches!(t.state.pc, Pc::WakeFlag | Pc::WakeLoad | Pc::WakeEfd));
        if follower.committed && mem[self.notified] != 0 && mem[self.ep] == 0 && !efd_coming {
            return Err(ProtoViolation {
                invariant: "no-lost-wakeup",
                detail: "the follower waits in epoll with its waker fired and no \
                         eventfd write on its way"
                    .into(),
            });
        }
        Ok(())
    }

    fn check_terminal(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<DriverThread>],
    ) -> Result<(), ProtoViolation> {
        let (worker, follower) = (&threads[0].state, &threads[2].state);
        if worker.ran != TASKS || mem[self.tasks] != 0 || follower.ran != 1 {
            return Err(ProtoViolation {
                invariant: "every-task-runs",
                detail: format!(
                    "worker ran {} of {TASKS} tasks ({} still queued); follower done: {}",
                    worker.ran,
                    mem[self.tasks],
                    follower.ran == 1
                ),
            });
        }
        Ok(())
    }

    fn invariants(&self) -> &'static [&'static str] {
        &["no-lost-wakeup", "every-task-runs"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::ProtoWorld;

    #[test]
    fn round_robin_completes() {
        let mut w = ProtoWorld::new(DriverSim::new());
        w.run_round_robin(100_000).expect("terminates");
        assert!(w.check_terminal_now().is_ok());
    }

    #[test]
    fn random_schedules_complete_clean() {
        for seed in 0..20 {
            let mut w = ProtoWorld::new(DriverSim::new());
            w.run_random(seed, 1_000_000).expect("terminates");
            assert!(w.check_now().is_ok());
            assert!(w.check_terminal_now().is_ok());
        }
    }
}
