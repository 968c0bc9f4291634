//! The paper's lock machines on the protocol substrate.
//!
//! [`LockSim`] runs one [`LockAlgorithm`] under per-thread [`Program`]s as
//! a [`ProtocolSim`], so the §3 locks and the post-seed protocols share one
//! world, one exhaustive explorer and one seeded walker. Its invariants are
//! the oracles of the §3 theorems:
//!
//! - **`mutual-exclusion`** (Theorem 2): no two threads hold a lock outside
//!   its exit code. §3 splits entry code / critical section / exit code /
//!   remainder, and Hemlock's ack wait belongs to the exit code, after
//!   ownership moved.
//! - **`fifo`** (Theorem 8): each doorstep takes a ticket from a per-lock
//!   checker-only counter past the algorithm's memory. A thread that holds
//!   a lock must not carry a higher ticket than a thread still waiting past
//!   the same doorstep. The holder's ticket is dropped at its next executed
//!   operation, once the state where it acquired has been checked, so
//!   tickets split no states that the doorstep order does not.
//! - **`fere-local`** (Theorem 10): the remote threads spinning on thread
//!   `u`'s Grant word number at most the locks associated with `u`
//!   (doorstep executed, exit code not complete).
//!
//! Lockout freedom (Theorem 6) is the substrate's own `deadlock-freedom`:
//! the explorer reports a state no thread can leave, and the walker a run
//! that exceeds its cap.

use crate::algo::{AlgoStep, LockAlgorithm};
use crate::op::{Meta, Op, Val};
use crate::program::{Action, Program};
use crate::proto::{ProtoThread, ProtoViolation, ProtocolSim};

/// A lock algorithm driven by one [`Program`] per thread.
#[derive(Clone, Debug)]
pub struct LockSim<A> {
    algo: A,
    programs: Vec<Program>,
}

impl<A: LockAlgorithm> LockSim<A> {
    /// Runs `programs[i]` on thread `i` over `algo`.
    pub fn new(algo: A, programs: Vec<Program>) -> Self {
        Self { algo, programs }
    }

    /// The lock algorithm.
    pub fn algo(&self) -> &A {
        &self.algo
    }

    /// Threads other than `u` spinning on `u`'s Grant word: the §2.2
    /// multi-waiting degree (0 for algorithms without Grant words). A
    /// waiter spins only while its condition is unsatisfied — the poll that
    /// observes the published value exits the loop — and `u`'s own
    /// exit-code wait is not multi-waiting.
    pub fn grant_spinners(
        &self,
        u: usize,
        mem: &[Val],
        threads: &[ProtoThread<LockThread<A::Thread>>],
    ) -> usize {
        let Some(grant) = self.algo.grant_word(u) else {
            return 0;
        };
        let spins = |t: &ProtoThread<_>| {
            matches!(t.pending, Some((_, Meta::SpinWait { loc, until }))
                if loc == grant && !until.satisfied(mem[loc]))
        };
        (0..threads.len())
            .filter(|&tid| tid != u && spins(&threads[tid]))
            .count()
    }
}

/// Execution phase of one simulated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Phase {
    /// About to look at `actions[pc]`.
    Idle,
    /// Inside the algorithm's acquire for this lock.
    Acquiring(usize),
    /// Inside the algorithm's release (the exit code) for this lock.
    Releasing(usize),
    /// Doing critical-section work on this lock's data word.
    CsWork { lock: usize, left: u32 },
    /// Doing private work.
    LocalWork { left: u32 },
}

/// One thread of a [`LockSim`]: program position, the algorithm's
/// registers, and the checkers' view of its locks.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LockThread<T> {
    tid: usize,
    round: u32,
    pc: usize,
    phase: Phase,
    holding: Vec<usize>,
    /// Locks whose doorstep ran and whose exit code has not completed.
    associated: Vec<usize>,
    /// `(lock, ticket)` for each doorstep not yet followed by an operation
    /// of the thread as that lock's holder.
    tickets: Vec<(usize, Val)>,
    algo: T,
    releases: u64,
}

impl<T> LockThread<T> {
    /// Locks this thread currently holds.
    pub fn holding(&self) -> &[usize] {
        &self.holding
    }

    /// Completed lock-unlock pairs.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    fn ticket(&self, lock: usize) -> Option<Val> {
        self.tickets.iter().find(|t| t.0 == lock).map(|t| t.1)
    }

    /// In `lock`'s critical section: holding it and not in its exit code.
    fn in_cs(&self, lock: usize) -> bool {
        self.holding.contains(&lock) && self.phase != Phase::Releasing(lock)
    }
}

fn violation(invariant: &'static str, detail: String) -> Result<(), ProtoViolation> {
    Err(ProtoViolation { invariant, detail })
}

impl<A: LockAlgorithm> ProtocolSim for LockSim<A> {
    type Thread = LockThread<A::Thread>;

    fn name(&self) -> &'static str {
        self.algo.name()
    }

    fn threads(&self) -> usize {
        self.programs.len()
    }

    /// The algorithm's words, then one ticket counter per lock.
    fn words(&self) -> usize {
        self.algo.words() + self.algo.locks()
    }

    fn initial_memory(&self) -> Vec<Val> {
        let mut mem = self.algo.initial_memory();
        mem.resize(self.words(), 0);
        mem
    }

    fn new_thread(&self, tid: usize) -> Self::Thread {
        LockThread {
            tid,
            round: 0,
            pc: 0,
            phase: Phase::Idle,
            holding: Vec::new(),
            associated: Vec::new(),
            tickets: Vec::new(),
            algo: self.algo.new_thread(tid),
            releases: 0,
        }
    }

    fn step(&self, t: &mut Self::Thread, mut last: Val) -> AlgoStep {
        let program = &self.programs[t.tid];
        loop {
            match t.phase {
                Phase::Idle => {
                    if t.pc >= program.actions().len() {
                        t.pc = 0;
                        t.round += 1;
                    }
                    if t.round >= program.rounds() {
                        return AlgoStep::Done;
                    }
                    match program.actions()[t.pc] {
                        Action::Acquire(l) => {
                            t.phase = Phase::Acquiring(l);
                            self.algo.begin_acquire(&mut t.algo, l);
                            last = 0;
                        }
                        Action::Release(l) => {
                            debug_assert!(
                                t.holding.contains(&l),
                                "release of unheld lock {l} by thread {}",
                                t.tid
                            );
                            t.phase = Phase::Releasing(l);
                            self.algo.begin_release(&mut t.algo, l);
                            last = 0;
                        }
                        Action::CsWork { lock, steps } => {
                            t.phase = Phase::CsWork { lock, left: steps };
                        }
                        Action::LocalWork { steps } => {
                            t.phase = Phase::LocalWork { left: steps };
                        }
                    }
                }
                Phase::Acquiring(l) | Phase::Releasing(l) => {
                    match self.algo.step(&mut t.algo, last) {
                        AlgoStep::Issue(op, meta) => return AlgoStep::Issue(op, meta),
                        AlgoStep::Done if t.phase == Phase::Acquiring(l) => t.holding.push(l),
                        AlgoStep::Done => {
                            t.holding.retain(|&h| h != l);
                            t.associated.retain(|&a| a != l);
                            t.tickets.retain(|&(x, _)| x != l);
                            t.releases += 1;
                        }
                    }
                    t.phase = Phase::Idle;
                    t.pc += 1;
                }
                Phase::CsWork { left: 0, .. } | Phase::LocalWork { left: 0 } => {
                    t.phase = Phase::Idle;
                    t.pc += 1;
                }
                Phase::CsWork { lock, left } => {
                    let loc = self.algo.data_word(lock);
                    // Alternate load/store on the shared data word.
                    let op = if left % 2 == 0 {
                        Op::Load(loc)
                    } else {
                        Op::Store(loc, left as Val)
                    };
                    t.phase = Phase::CsWork {
                        lock,
                        left: left - 1,
                    };
                    return AlgoStep::Issue(op, Meta::None);
                }
                Phase::LocalWork { left } => {
                    let loc = self.algo.private_word(t.tid);
                    t.phase = Phase::LocalWork { left: left - 1 };
                    return AlgoStep::Issue(Op::Store(loc, left as Val), Meta::None);
                }
            }
        }
    }

    fn ghost(&self, mem: &mut [Val], t: &mut Self::Thread, meta: Meta) {
        // The state where a holder acquired has been checked by now.
        let holding = &t.holding;
        t.tickets.retain(|(lock, _)| !holding.contains(lock));
        if let Meta::Doorstep { lock } = meta {
            t.associated.push(lock);
            let next = &mut mem[self.algo.words() + lock];
            t.tickets.push((lock, *next));
            *next += 1;
        }
    }

    fn check(
        &self,
        mem: &[Val],
        threads: &[ProtoThread<Self::Thread>],
    ) -> Result<(), ProtoViolation> {
        for lock in 0..self.algo.locks() {
            if threads.iter().filter(|t| t.state.in_cs(lock)).count() > 1 {
                let inside: Vec<usize> = (0..threads.len())
                    .filter(|&i| threads[i].state.in_cs(lock))
                    .collect();
                return violation(
                    "mutual-exclusion",
                    format!("threads {inside:?} are in lock {lock}'s critical section"),
                );
            }
            for (h, holder) in threads.iter().enumerate() {
                let holder = &holder.state;
                if !holder.holding.contains(&lock) {
                    continue;
                }
                if !holder.associated.contains(&lock) {
                    return violation(
                        "fifo",
                        format!("thread {h} acquired lock {lock} without a doorstep"),
                    );
                }
                let Some(mine) = holder.ticket(lock) else {
                    continue;
                };
                let waiting = |w: &LockThread<A::Thread>| {
                    !w.holding.contains(&lock) && w.ticket(lock).is_some_and(|x| x < mine)
                };
                if let Some(w) = threads.iter().position(|w| waiting(&w.state)) {
                    return violation(
                        "fifo",
                        format!(
                            "thread {h} acquired lock {lock} with ticket {mine} while \
                             thread {w}, ahead of it, still waits"
                        ),
                    );
                }
            }
        }
        for (u, owner) in threads.iter().enumerate() {
            let spinners = self.grant_spinners(u, mem, threads);
            let bound = owner.state.associated.len();
            if spinners > bound {
                return violation(
                    "fere-local",
                    format!("{spinners} threads spin on thread {u}'s grant word, bound {bound}"),
                );
            }
        }
        Ok(())
    }

    fn invariants(&self) -> &'static [&'static str] {
        &["mutual-exclusion", "fifo", "fere-local"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
    use crate::{ProtoWorld, SplitMix64};

    fn world<A: LockAlgorithm>(algo: A, programs: Vec<Program>) -> ProtoWorld<LockSim<A>> {
        ProtoWorld::new(LockSim::new(algo, programs))
    }

    fn releases<A: LockAlgorithm>(w: &ProtoWorld<LockSim<A>>) -> u64 {
        w.threads.iter().map(|t| t.state.releases()).sum()
    }

    #[test]
    fn single_thread_completes() {
        let algo = TicketSim::new(1, 1);
        let doorsteps = algo.words();
        let mut w = world(algo, vec![Program::lock_unlock(0, 2, 2, 3)]);
        w.run_round_robin(10_000).expect("must terminate");
        assert_eq!(releases(&w), 3);
        assert_eq!(w.mem[doorsteps], 3, "one ticket per doorstep");
        assert!(w.threads[0].state.holding().is_empty());
        assert!(w.threads[0].state.associated.is_empty());
    }

    #[test]
    fn two_threads_hemlock_round_robin() {
        let algo = HemlockSim::new(2, 1, HemlockFlavor::Ctr);
        let mut w = world(algo, vec![Program::lock_unlock(0, 0, 0, 50); 2]);
        w.run_round_robin(1_000_000).expect("must terminate");
        assert_eq!(releases(&w), 100);
    }

    #[test]
    fn random_schedules_terminate_for_all_algorithms() {
        let programs = || vec![Program::lock_unlock(0, 1, 1, 20); 3];
        for seed in 0..10 {
            assert!(world(TicketSim::new(3, 1), programs())
                .run_random(seed, 2_000_000)
                .is_some());
            assert!(world(McsSim::new(3, 1), programs())
                .run_random(seed, 2_000_000)
                .is_some());
            assert!(world(ClhSim::new(3, 1), programs())
                .run_random(seed, 2_000_000)
                .is_some());
            for flavor in [HemlockFlavor::Ctr, HemlockFlavor::Naive] {
                assert!(world(HemlockSim::new(3, 1, flavor), programs())
                    .run_random(seed, 2_000_000)
                    .is_some());
            }
        }
    }

    #[test]
    fn mutual_exclusion_holds_under_random_schedules() {
        for seed in 0..20 {
            let programs = vec![
                Program::lock_unlock(0, 2, 0, 10),
                Program::lock_unlock(0, 2, 0, 10),
                Program::lock_unlock(1, 2, 0, 10),
            ];
            let mut w = world(HemlockSim::new(3, 2, HemlockFlavor::Ctr), programs);
            let mut rng = SplitMix64::new(seed);
            let mut steps = 0u64;
            while !w.all_finished() {
                w.step(w.random_live(&mut rng));
                // The CS ends when the exit code begins (§3): Hemlock's
                // successor may run its CS while the predecessor still
                // waits for the ack.
                for lock in 0..2 {
                    let inside = w.threads.iter().filter(|t| t.state.in_cs(lock)).count();
                    assert!(inside <= 1, "mutual exclusion violated on lock {lock}");
                }
                assert_eq!(w.check_now(), Ok(()));
                steps += 1;
                assert!(steps < 5_000_000, "budget exhausted");
            }
        }
    }

    #[test]
    fn state_hash_distinguishes_progress() {
        let algo = HemlockSim::new(1, 1, HemlockFlavor::Ctr);
        let mut w = world(algo, vec![Program::lock_unlock(0, 0, 0, 2)]);
        let h0 = w.state_hash();
        w.step(0);
        assert_ne!(h0, w.state_hash());
    }

    fn fresh_hemlock_world() -> ProtoWorld<LockSim<HemlockSim>> {
        let algo = HemlockSim::new(2, 1, HemlockFlavor::Ctr);
        world(algo, vec![Program::lock_unlock(0, 0, 0, 1); 2])
    }

    #[test]
    fn mutex_check_clean_on_fresh_world() {
        let w = fresh_hemlock_world();
        assert!(w.threads.iter().all(|t| !t.state.in_cs(0)));
        assert_eq!(w.check_now(), Ok(()));
    }

    #[test]
    fn fere_local_census_clean_on_fresh_world() {
        let w = fresh_hemlock_world();
        for u in 0..w.threads.len() {
            assert_eq!(w.proto.grant_spinners(u, &w.mem, &w.threads), 0);
        }
        assert_eq!(w.check_now(), Ok(()));
    }
}
