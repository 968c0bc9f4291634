//! Exhaustive model checking of the appendix variants (Listings 3–6).
//!
//! These are the risky ones: Overlap's deferred ack admits the stale-grant
//! pathology its line-6 check exists to prevent (Appendix A documents the
//! exact exclusion failure); AH's speculative publish reorders the handover
//! against the Tail CAS; V1's `L|1` tag adds a third Grant state. Every
//! interleaving of small configurations is enumerated for each.

use hemlock_model::{check_proto_random_run, explore_proto};
use hemlock_simlock::algos::{HemlockFlavor, HemlockSim};
use hemlock_simlock::{Action, LockSim, Program, ProtoWorld};

fn world(algo: HemlockSim, programs: Vec<Program>) -> ProtoWorld<LockSim<HemlockSim>> {
    ProtoWorld::new(LockSim::new(algo, programs))
}

fn assert_clean(world: ProtoWorld<LockSim<HemlockSim>>, label: &str) {
    let report = explore_proto(world, 3_000_000);
    assert!(report.clean(), "{label}: {:?}", report.violations);
    assert!(
        report.exhaustive,
        "{label}: cap hit at {} states",
        report.states
    );
    assert!(report.terminal_states >= 1, "{label}");
}

#[test]
fn all_flavors_two_threads_two_rounds() {
    for flavor in HemlockFlavor::ALL {
        let programs = vec![
            Program::lock_unlock(0, 0, 0, 2),
            Program::lock_unlock(0, 0, 0, 2),
        ];
        assert_clean(
            world(HemlockSim::new(2, 1, flavor), programs),
            &format!("{flavor:?} 2t x 2r"),
        );
    }
}

#[test]
fn all_flavors_two_threads_with_cs_work() {
    for flavor in HemlockFlavor::ALL {
        let programs = vec![
            Program::lock_unlock(0, 2, 1, 2),
            Program::lock_unlock(0, 2, 1, 2),
        ];
        assert_clean(
            world(HemlockSim::new(2, 1, flavor), programs),
            &format!("{flavor:?} cs-work"),
        );
    }
}

#[test]
fn all_flavors_three_threads_one_round() {
    for flavor in HemlockFlavor::ALL {
        let programs = vec![
            Program::lock_unlock(0, 0, 0, 1),
            Program::lock_unlock(0, 0, 0, 1),
            Program::lock_unlock(0, 0, 0, 1),
        ];
        assert_clean(
            world(HemlockSim::new(3, 1, flavor), programs),
            &format!("{flavor:?} 3t"),
        );
    }
}

#[test]
fn overlap_tight_reacquisition_of_same_lock() {
    // The Appendix A pathology: "If thread T1 were to enqueue an element
    // that contains a residual Grant value that happens to match that of
    // the lock, then when a successor T2 enqueues after T1, it will
    // incorrectly see that address in T1's grant field and then incorrectly
    // enter the critical section, resulting in exclusion and safety failure
    // and a corrupt chain. The check at line 6 prevents that pathology."
    // Three rounds of tight same-lock reacquisition explores exactly that
    // window exhaustively.
    let programs = vec![
        Program::lock_unlock(0, 0, 0, 3),
        Program::lock_unlock(0, 0, 0, 3),
    ];
    assert_clean(
        world(HemlockSim::new(2, 1, HemlockFlavor::Overlap), programs),
        "overlap tight reacquisition",
    );
}

#[test]
fn v1_tag_with_two_locks_nested() {
    // V1's markers interact across locks: a holder of L0+L1 can have its
    // tag overwritten by a pass of the other lock (marker loss is benign
    // but must never break exclusion or FIFO).
    let nested = Program::new(
        vec![
            Action::Acquire(0),
            Action::Acquire(1),
            Action::Release(1),
            Action::Release(0),
        ],
        1,
    );
    let single = Program::lock_unlock(1, 0, 0, 2);
    assert_clean(
        world(
            HemlockSim::new(2, 2, HemlockFlavor::V1),
            vec![nested, single],
        ),
        "v1 nested + single",
    );
}

#[test]
fn ah_and_v2_nested_two_locks() {
    for flavor in [HemlockFlavor::Ah, HemlockFlavor::V2] {
        let nested = Program::new(
            vec![
                Action::Acquire(0),
                Action::Acquire(1),
                Action::Release(1),
                Action::Release(0),
            ],
            1,
        );
        assert_clean(
            world(
                HemlockSim::new(2, 2, flavor),
                vec![nested.clone(), nested.clone()],
            ),
            &format!("{flavor:?} nested"),
        );
    }
}

#[test]
fn all_flavors_progress_under_fair_schedules() {
    // Theorem 6 (bounded form): round-robin within 3M operations, and 15
    // seeded fair schedules within the walker's per-run cap.
    for flavor in HemlockFlavor::ALL {
        let mk = || {
            world(
                HemlockSim::new(3, 1, flavor),
                vec![Program::lock_unlock(0, 1, 1, 8); 3],
            )
        };
        assert!(mk().run_round_robin(3_000_000).is_some(), "{flavor:?}");
        for seed in 0..15 {
            let run = check_proto_random_run(mk, seed, 1);
            assert!(run.clean(), "{flavor:?} seed {seed}: {:?}", run.violation);
        }
    }
}

#[test]
fn all_flavors_multiwait_junction_config() {
    for flavor in HemlockFlavor::ALL {
        let programs = vec![
            Program::multiwait_leader(2, 1),
            Program::lock_unlock(0, 0, 0, 1),
            Program::lock_unlock(1, 0, 0, 1),
        ];
        assert_clean(
            world(HemlockSim::new(3, 2, flavor), programs),
            &format!("{flavor:?} junction"),
        );
    }
}
