//! Exhaustive model checking of the post-seed protocols, spanning
//! simlock + model.
//!
//! Positive direction: every scenario in the canonical registry
//! ([`post_seed_scenarios`]) explores its full small-scope state space
//! (`exhaustive == true`) with zero invariant violations. Negative
//! direction: each deliberately-injected protocol bug (a skipped Dekker
//! re-check, a dropped racing grant, an unordered two-shard acquire, a
//! release mid-update, a skipped writer-flag check, a leaked read
//! indicator, a DONE store deferred past the lock release, a reactor
//! registration armed before its waker is stored, a skipped stop
//! re-check, a pool leader published after the queue lock drops, a
//! driver leaving without a hand-off, an unpark sent to a thread waiting
//! in epoll) is caught by a named invariant or as a deadlock. The long-horizon seeded random walks
//! (the `modelbench` CI job runs millions of steps) get a smoke test here.

use hemlock_model::{check_proto_random_run, explore_proto, post_seed_scenarios};
use hemlock_simlock::protocols::{
    DekkerBug, DekkerSim, DriverBug, DriverSim, FcBug, FcRole, FcSim, QueueBug, QueueRole,
    ReactorBug, ReactorSim, RwBug, RwRole, RwSim, TwoShardBug, TwoShardOp, TwoShardSim,
    WakerQueueSim,
};
use hemlock_simlock::{ProtoWorld, ProtocolSim};

const MAX_STATES: usize = 3_000_000;

// ---------------------------------------------------------------------------
// Positive: every canonical scenario is exhaustively clean.
// ---------------------------------------------------------------------------

#[test]
fn all_post_seed_scenarios_exhaustively_clean() {
    for s in post_seed_scenarios() {
        let report = s.explore(MAX_STATES);
        assert!(report.clean(), "{}: {:?}", s.name, report.violations);
        assert!(
            report.exhaustive,
            "{}: state cap hit at {} states",
            s.name, report.states
        );
        assert!(
            report.terminal_states >= 1,
            "{}: no terminal state reached",
            s.name
        );
        assert!(
            report.states > 100,
            "{}: trivially small space ({} states) — scenario misconfigured",
            s.name,
            report.states
        );
    }
}

// ---------------------------------------------------------------------------
// Negative: every injected bug is caught.
// ---------------------------------------------------------------------------

/// Explores a buggy configuration and asserts the explorer reports at least
/// one violation, all of them among `expected` invariant names.
fn assert_caught<P: ProtocolSim + Clone>(proto: P, expected: &[&str], label: &str) {
    let report = explore_proto(ProtoWorld::new(proto), MAX_STATES);
    assert!(
        !report.clean(),
        "{label}: injected bug escaped the explorer ({} states, exhaustive: {})",
        report.states,
        report.exhaustive
    );
    for v in &report.violations {
        assert!(
            expected.contains(&v.invariant),
            "{label}: unexpected invariant {:?} (expected one of {expected:?}): {}",
            v.invariant,
            v.detail
        );
    }
}

#[test]
fn wakerset_skipped_recheck_loses_wakeups() {
    // Dropping the fence-ordered re-try after registration: an unlocker can
    // read the registration word before the store lands, so the parked
    // waiter is never woken — a deadlock under the parking-as-spinning
    // convention.
    assert_caught(
        DekkerSim::with_bug(3, 2, DekkerBug::SkipRecheck),
        &["deadlock-freedom", "no-lost-wakeup"],
        "wakerset SkipRecheck",
    );
}

#[test]
fn wakerset_notify_before_release_loses_wakeups() {
    // Reading the registration word before the unlock store is the other
    // half of the Dekker pair: a waiter that registers between the two
    // observes the lock held, parks, and is never woken.
    assert_caught(
        DekkerSim::with_bug(3, 2, DekkerBug::NotifyBeforeRelease),
        &["deadlock-freedom", "no-lost-wakeup"],
        "wakerset NotifyBeforeRelease",
    );
}

#[test]
fn wakerqueue_dropped_racing_grant_strands_the_lock() {
    // A cancel that swallows a racing grant leaves the owner word naming a
    // departed thread: later waiters park forever (deadlock), or the run
    // terminates with the owner word stranded.
    assert_caught(
        WakerQueueSim::with_bug(
            vec![
                QueueRole::Lock { rounds: 2 },
                QueueRole::Cancel,
                QueueRole::Lock { rounds: 1 },
            ],
            QueueBug::DropRacingGrant,
        ),
        &["deadlock-freedom", "no-stranded-grant"],
        "wakerqueue DropRacingGrant",
    );
}

fn overlapping_ops() -> (Vec<TwoShardOp>, Vec<hemlock_simlock::Val>) {
    (
        vec![
            TwoShardOp {
                a: 0,
                b: 1,
                rounds: 2,
            },
            TwoShardOp {
                a: 2,
                b: 1,
                rounds: 2,
            },
        ],
        vec![4, 0, 4],
    )
}

#[test]
fn with_two_unordered_blocking_acquire_deadlocks() {
    // A crossing pair — one thread transfers 0→1, the other 1→0 — is the
    // classic ABBA deadlock `with_two`'s index ordering exists to prevent:
    // in argument order each holds its first shard while blocking on the
    // other's. (The ordered protocol normalizes both to (0, 1).)
    let crossing = vec![
        TwoShardOp {
            a: 1,
            b: 0,
            rounds: 2,
        },
        TwoShardOp {
            a: 0,
            b: 1,
            rounds: 2,
        },
    ];
    assert_caught(
        TwoShardSim::with_bug(crossing, vec![4, 4], TwoShardBug::BlockingUnordered),
        &["deadlock-freedom"],
        "with_two BlockingUnordered",
    );
}

#[test]
fn with_two_release_mid_update_tears_the_pair() {
    // Releasing both locks between the two slot writes exposes a state
    // where the pair's conservation sum is broken while no lock is held.
    let (ops, init) = overlapping_ops();
    assert_caught(
        TwoShardSim::with_bug(ops, init, TwoShardBug::ReleaseMidUpdate),
        &["no-torn-pair"],
        "with_two ReleaseMidUpdate",
    );
}

fn rw_roles() -> Vec<RwRole> {
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
fn rw_skipped_wflag_check_coexists_with_writer() {
    // A reader that treats its stripe increment alone as a license (without
    // checking the writer flag) can sit in its CS while a writer that
    // already drained is in its own.
    assert_caught(
        RwSim::with_bug(2, rw_roles(), RwBug::SkipWflagCheck),
        &["readers-exclude-writer"],
        "rw SkipWflagCheck",
    );
}

#[test]
fn rw_leaked_indicator_on_abort_wedges_writers() {
    // A timed reader that gives up without withdrawing its increment leaves
    // the stripe nonzero forever: an untimed writer's drain never
    // completes (deadlock), and the indicator census is inconsistent.
    assert_caught(
        RwSim::with_bug(2, rw_roles(), RwBug::LeakOnAbort),
        &[
            "deadlock-freedom",
            "indicator-consistency",
            "clean-indicators",
        ],
        "rw LeakOnAbort",
    );
}

#[test]
fn fc_release_before_done_breaks_claim_discipline() {
    // Deferring the DONE stores past the lock release exposes CLAIMED
    // records with the lock free — the combiner-election hazard the batch
    // layer's DONE-before-release rule forbids.
    assert_caught(
        FcSim::with_bug(
            vec![
                FcRole { cancel: false },
                FcRole { cancel: false },
                FcRole { cancel: true },
            ],
            FcBug::ReleaseBeforeDone,
        ),
        &["claimed-implies-locked"],
        "fc ReleaseBeforeDone",
    );
}

#[test]
fn reactor_arm_before_store_loses_wakeups() {
    // Arming the one-shot registration before the waker is in its slot:
    // the driver can fire on the empty slot and spend the registration,
    // so the readiness the task parked for wakes no one.
    assert_caught(
        ReactorSim::with_bug(2, ReactorBug::ArmBeforeStore),
        &["deadlock-freedom", "no-lost-wakeup"],
        "reactor ArmBeforeStore",
    );
}

#[test]
fn reactor_skipped_stop_recheck_loses_wakeups() {
    // Parking without re-checking stop after storing the waker: a stop
    // that took the slot while it was still empty wakes no one, and an
    // idle peer never will — the reader parks forever.
    assert_caught(
        ReactorSim::with_bug(2, ReactorBug::SkipStopRecheck),
        &["deadlock-freedom", "no-lost-wakeup"],
        "reactor SkipStopRecheck",
    );
}

#[test]
fn driver_leader_published_late_loses_wakeups() {
    // Publishing the pool's leader after the queue lock drops: a push in
    // between sees no idle worker and no leader, so it rouses nobody while
    // the worker heads into the epoll with the task queued.
    assert_caught(
        DriverSim::with_bug(DriverBug::LeaderPublishedLate),
        &["deadlock-freedom", "no-lost-wakeup"],
        "driver LeaderPublishedLate",
    );
}

#[test]
fn driver_leaving_without_hand_off_strands_the_reactor() {
    // The block_on thread returns without waking the worker that
    // followed it: the worker sleeps on its condvar, and the socket that
    // becomes ready afterwards has nobody waiting in the epoll.
    assert_caught(
        DriverSim::with_bug(DriverBug::NoHandOffOnLeave),
        &["deadlock-freedom", "no-lost-wakeup"],
        "driver NoHandOffOnLeave",
    );
}

#[test]
fn driver_unpark_while_driving_loses_wakeups() {
    // A wake that unparks a thread waiting in epoll_pwait2 instead of
    // writing the eventfd: the thread never sees it.
    assert_caught(
        DriverSim::with_bug(DriverBug::UnparkWhileDriving),
        &["deadlock-freedom", "no-lost-wakeup"],
        "driver UnparkWhileDriving",
    );
}

// ---------------------------------------------------------------------------
// Long-horizon seeded random walks (smoke; modelbench runs the full budget).
// ---------------------------------------------------------------------------

#[test]
fn random_walks_stay_clean_across_seeds() {
    for s in post_seed_scenarios() {
        for seed in [7, 0x9E3779B97F4A7C15u64] {
            let report = s.random_run(seed, 20_000);
            assert!(
                report.clean(),
                "{} seed {seed}: {:?}",
                s.name,
                report.violation
            );
            assert!(report.steps >= 20_000);
            assert!(
                report.completed_runs >= 1,
                "{} seed {seed}: no run completed",
                s.name
            );
        }
    }
}

#[test]
fn random_walk_driver_reports_injected_bug() {
    // The long-horizon driver must catch what the explorer catches: the
    // reader/writer coexistence bug trips within a few thousand steps on
    // any seed with overwhelming probability.
    let report = check_proto_random_run(
        || ProtoWorld::new(RwSim::with_bug(2, rw_roles(), RwBug::SkipWflagCheck)),
        42,
        200_000,
    );
    assert!(
        report.violation.is_some(),
        "driver missed the injected bug after {} steps",
        report.steps
    );
}
