//! Machine-checked Section 3 theorems across configurations, spanning
//! simlock + model, and the negative fixtures that show each §3 oracle
//! trips on a lock that breaks its theorem.

use hemlock_model::{check_proto_random_run, explore_proto, ProtoReport};
use hemlock_simlock::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
use hemlock_simlock::{
    Action, AlgoStep, Loc, LockAlgorithm, LockSim, Meta, Op, Program, ProtoWorld, Until, Val,
};

fn world<A: LockAlgorithm>(algo: A, programs: Vec<Program>) -> ProtoWorld<LockSim<A>> {
    ProtoWorld::new(LockSim::new(algo, programs))
}

fn assert_clean<A: LockAlgorithm + Clone>(world: ProtoWorld<LockSim<A>>, label: &str) {
    let report = explore_proto(world, 2_000_000);
    assert!(report.clean(), "{label}: {:?}", report.violations);
    assert!(
        report.exhaustive,
        "{label}: state cap hit at {}",
        report.states
    );
    assert!(report.terminal_states >= 1, "{label}: no terminal state");
}

#[test]
fn hemlock_two_threads_with_cs_work() {
    for flavor in [HemlockFlavor::Ctr, HemlockFlavor::Naive] {
        let programs = vec![Program::lock_unlock(0, 2, 1, 2); 2];
        assert_clean(
            world(HemlockSim::new(2, 1, flavor), programs),
            "hemlock 2t cs-work",
        );
    }
}

#[test]
fn hemlock_three_threads_one_round() {
    for flavor in [HemlockFlavor::Ctr, HemlockFlavor::Naive] {
        let programs = vec![Program::lock_unlock(0, 0, 0, 1); 3];
        assert_clean(world(HemlockSim::new(3, 1, flavor), programs), "hemlock 3t");
    }
}

#[test]
fn hemlock_nested_two_locks_exhaustive() {
    // Both threads take L0 then L1 nested — the multi-lock regime where
    // fere-local (not purely local) spinning is the guarantee.
    let nested = Program::new(
        vec![
            Action::Acquire(0),
            Action::Acquire(1),
            Action::Release(1),
            Action::Release(0),
        ],
        1,
    );
    for flavor in [HemlockFlavor::Ctr, HemlockFlavor::Naive] {
        assert_clean(
            world(HemlockSim::new(2, 2, flavor), vec![nested.clone(); 2]),
            "hemlock nested",
        );
    }
}

#[test]
fn hemlock_opposite_order_independent_locks() {
    // T0 uses L0 then L1; T1 uses L1 then L0 — sequentially, not nested
    // (no deadlock possible), exercising Grant reuse across locks.
    let p0 = Program::new(
        vec![
            Action::Acquire(0),
            Action::Release(0),
            Action::Acquire(1),
            Action::Release(1),
        ],
        1,
    );
    let p1 = Program::new(
        vec![
            Action::Acquire(1),
            Action::Release(1),
            Action::Acquire(0),
            Action::Release(0),
        ],
        1,
    );
    assert_clean(
        world(HemlockSim::new(2, 2, HemlockFlavor::Ctr), vec![p0, p1]),
        "hemlock opposite order",
    );
}

#[test]
fn baselines_with_cs_work() {
    let programs = || vec![Program::lock_unlock(0, 2, 0, 2); 2];
    assert_clean(world(TicketSim::new(2, 1), programs()), "ticket");
    assert_clean(world(McsSim::new(2, 1), programs()), "mcs");
    assert_clean(world(ClhSim::new(2, 1), programs()), "clh");
}

/// Theorem 6 (bounded form): the world finishes under round-robin within
/// `max_steps` operations, and under `seeds` seeded fair schedules within
/// the walker's per-run cap, with every §3 invariant checked on the way.
fn lockout_free<A: LockAlgorithm>(
    make: impl Fn() -> ProtoWorld<LockSim<A>>,
    seeds: u64,
    max_steps: u64,
) -> bool {
    make().run_round_robin(max_steps).is_some()
        && (0..seeds).all(|seed| check_proto_random_run(&make, seed, 1).clean())
}

#[test]
fn lockout_freedom_under_fair_schedules() {
    // Theorem 6 (bounded form): termination under round-robin plus many
    // random fair schedules, for every algorithm.
    let programs = || vec![Program::lock_unlock(0, 1, 1, 10); 3];
    assert!(lockout_free(
        || world(HemlockSim::new(3, 1, HemlockFlavor::Ctr), programs()),
        25,
        3_000_000
    ));
    assert!(lockout_free(
        || world(HemlockSim::new(3, 1, HemlockFlavor::Naive), programs()),
        25,
        3_000_000
    ));
    assert!(lockout_free(
        || world(McsSim::new(3, 1), programs()),
        10,
        3_000_000
    ));
    assert!(lockout_free(
        || world(ClhSim::new(3, 1), programs()),
        10,
        3_000_000
    ));
    assert!(lockout_free(
        || world(TicketSim::new(3, 1), programs()),
        10,
        3_000_000
    ));
}

#[test]
fn multiwait_leader_configuration_is_safe() {
    // Leader takes L0..L2 ascending, releases descending; two waiters.
    let programs = vec![
        Program::multiwait_leader(2, 1),
        Program::lock_unlock(0, 0, 0, 1),
        Program::lock_unlock(1, 0, 0, 1),
    ];
    assert_clean(
        world(HemlockSim::new(3, 2, HemlockFlavor::Ctr), programs),
        "multiwait leader",
    );
}

/// A test-and-set lock: arrival is one SWAP of the lock word (the
/// doorstep), a failed arrival re-SWAPs until it reads 0, and release
/// stores 0. It excludes, but admits waiters in any order; the knobs break
/// it further.
#[derive(Clone, Debug)]
struct TasSim {
    threads: usize,
    /// Report the lock word as every thread's Grant word, so the waiters
    /// all spin "on" whichever thread the census looks at.
    grant_is_lock_word: bool,
    /// Release stores nothing, so the lock is never free again.
    release_forgets: bool,
}

const TAS_WORD: Loc = 1;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum TasPc {
    Idle,
    Arrive,
    Poll,
    Release,
}

impl TasSim {
    fn new(threads: usize) -> Self {
        Self {
            threads,
            grant_is_lock_word: false,
            release_forgets: false,
        }
    }
}

impl LockAlgorithm for TasSim {
    type Thread = TasPc;
    fn name(&self) -> &'static str {
        "TAS"
    }
    fn words(&self) -> usize {
        3 + self.threads // null, lock word, data, privates
    }
    fn locks(&self) -> usize {
        1
    }
    fn initial_memory(&self) -> Vec<Val> {
        vec![0; self.words()]
    }
    fn new_thread(&self, _tid: usize) -> TasPc {
        TasPc::Idle
    }
    fn begin_acquire(&self, t: &mut TasPc, _lock: usize) {
        *t = TasPc::Arrive;
    }
    fn begin_release(&self, t: &mut TasPc, _lock: usize) {
        *t = TasPc::Release;
    }
    fn step(&self, t: &mut TasPc, last: Val) -> AlgoStep {
        let swap = Op::Swap {
            loc: TAS_WORD,
            val: 1,
        };
        match t {
            TasPc::Arrive => {
                *t = TasPc::Poll;
                AlgoStep::Issue(swap, Meta::Doorstep { lock: 0 })
            }
            TasPc::Poll if last != 0 => AlgoStep::Issue(
                swap,
                Meta::SpinWait {
                    loc: TAS_WORD,
                    until: Until::Eq(0),
                },
            ),
            TasPc::Release if !self.release_forgets => {
                *t = TasPc::Idle;
                AlgoStep::Issue(Op::Store(TAS_WORD, 0), Meta::None)
            }
            _ => {
                *t = TasPc::Idle;
                AlgoStep::Done
            }
        }
    }
    fn data_word(&self, _lock: usize) -> Loc {
        2
    }
    fn private_word(&self, tid: usize) -> Loc {
        3 + tid
    }
    fn grant_word(&self, _tid: usize) -> Option<Loc> {
        self.grant_is_lock_word.then_some(TAS_WORD)
    }
}

fn tas_world(tas: TasSim) -> ProtoWorld<LockSim<TasSim>> {
    let threads = tas.threads;
    world(tas, vec![Program::lock_unlock(0, 0, 0, 1); threads])
}

fn tripped(report: &ProtoReport, invariant: &str) -> bool {
    report.violations.iter().any(|v| v.invariant == invariant)
}

#[test]
fn test_and_set_trips_fifo() {
    // Three threads: a waiter that arrived later can win the SWAP race
    // after a release, ahead of one still waiting since before it.
    let report = explore_proto(tas_world(TasSim::new(3)), 100_000);
    assert!(report.exhaustive);
    assert!(tripped(&report, "fifo"), "{:?}", report.violations);
    assert!(!tripped(&report, "mutual-exclusion"), "TAS still excludes");
}

#[test]
fn test_and_set_on_one_word_trips_fere_local() {
    // Both waiters spin on the word reported as the holder's Grant word,
    // while the holder is associated with one lock.
    let tas = TasSim {
        grant_is_lock_word: true,
        ..TasSim::new(3)
    };
    let report = explore_proto(tas_world(tas), 100_000);
    assert!(tripped(&report, "fere-local"), "{:?}", report.violations);
}

#[test]
fn release_that_stores_nothing_trips_deadlock_freedom() {
    let tas = TasSim {
        release_forgets: true,
        ..TasSim::new(3)
    };
    let report = explore_proto(tas_world(tas.clone()), 100_000);
    assert!(report.exhaustive);
    assert!(
        tripped(&report, "deadlock-freedom"),
        "{:?}",
        report.violations
    );
    assert_eq!(report.terminal_states, 0, "no run can finish");
    // The walker's per-run cap reports the same wedge.
    let run = check_proto_random_run(|| tas_world(tas.clone()), 1, 1);
    let violation = run.violation.expect("the walk must not finish");
    assert_eq!(violation.invariant, "deadlock-freedom");
}
