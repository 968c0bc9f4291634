//! Model checking of the post-seed protocols.
//!
//! The seed crates' §3 theorems cover the lock algorithms; the layers this
//! workspace grew on top of them (`WakerSet`, `WakerQueue`,
//! `ShardedTable::with_two`, `HemlockRw`, the flat-combining batch layer)
//! are hand-rolled protocols with their own safety arguments. Each is
//! re-encoded in `hemlock-simlock::protocols` as a
//! [`ProtocolSim`] state machine; this module explores those machines the
//! same way [`explore`](crate::explore()) covers the locks — bounded
//! DFS with state hashing, the protocol's named invariants checked at every
//! reachable state, deadlock detection for lost wakeups and stranded
//! grants — plus a seeded long-horizon random-walk driver for the depths
//! the exhaustive pass cannot reach.
//!
//! [`post_seed_scenarios`] is the canonical registry of small-scope
//! configurations; `docs/ARCHITECTURE.md` ("Model checking the post-seed
//! protocols") tabulates them, and each protocol's in-code safety comment
//! names its scenario.

use hemlock_simlock::protocols::{
    DekkerSim, DriverSim, FcRole, FcSim, QueueRole, ReactorSim, RwRole, RwSim, TwoShardOp,
    TwoShardSim, WakerQueueSim,
};
use hemlock_simlock::{ProtoViolation, ProtoWorld, ProtocolSim, SplitMix64};
use std::collections::HashSet;

/// Result of exploring one protocol configuration.
#[derive(Clone, Debug)]
pub struct ProtoReport {
    /// Protocol name ([`ProtocolSim::name`]).
    pub protocol: &'static str,
    /// Distinct states visited.
    pub states: usize,
    /// Invariant violations found (empty = all checked states clean).
    pub violations: Vec<ProtoViolation>,
    /// True when the whole reachable space fit under the state budget.
    pub exhaustive: bool,
    /// Fully-terminated states reached (their terminal invariants ran too).
    pub terminal_states: usize,
}

impl ProtoReport {
    /// True when no violations were found.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively explores every interleaving of `world` (up to `max_states`
/// distinct states), running the protocol's invariants at each one and its
/// terminal invariants at every fully-finished state. A state from which no
/// enabled thread's step changes the machine is reported as a
/// `deadlock-freedom` violation — under the parking-as-spinning convention
/// this is exactly how a lost wakeup or stranded grant manifests.
pub fn explore_proto<P>(world: ProtoWorld<P>, max_states: usize) -> ProtoReport
where
    P: ProtocolSim + Clone,
{
    let mut report = ProtoReport {
        protocol: world.proto.name(),
        states: 0,
        violations: Vec::new(),
        exhaustive: true,
        terminal_states: 0,
    };
    let mut visited: HashSet<u64> = HashSet::new();
    let mut stack: Vec<ProtoWorld<P>> = Vec::new();
    visited.insert(world.state_hash());
    stack.push(world);

    while let Some(world) = stack.pop() {
        report.states += 1;
        if report.states >= max_states {
            report.exhaustive = false;
            break;
        }

        if let Err(v) = world.check_now() {
            report.violations.push(v);
            continue;
        }
        if world.all_finished() {
            report.terminal_states += 1;
            if let Err(v) = world.check_terminal_now() {
                report.violations.push(v);
            }
            continue;
        }

        let here = world.state_hash();
        let mut any_progress = false;
        for tid in 0..world.thread_count() {
            if world.threads[tid].done {
                continue;
            }
            let mut next = world.clone();
            next.step(tid);
            let key = next.state_hash();
            if key != here {
                any_progress = true;
            }
            if visited.insert(key) {
                stack.push(next);
            }
        }
        if !any_progress {
            report.violations.push(ProtoViolation {
                invariant: "deadlock-freedom",
                detail: format!(
                    "{}: no enabled thread can change the state (lost wakeup / \
                     stranded grant)",
                    report.protocol
                ),
            });
        }
    }
    report
}

/// Result of a long-horizon random-walk simulation.
#[derive(Clone, Debug)]
pub struct ProtoRunReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Total scheduler steps executed across all runs.
    pub steps: u64,
    /// Complete executions (fresh world to all-finished).
    pub completed_runs: u64,
    /// First violation observed, if any (per-state invariants, terminal
    /// invariants, or a run that exceeded the per-run liveness cap).
    pub violation: Option<ProtoViolation>,
}

impl ProtoRunReport {
    /// True when every run completed with all invariants intact.
    pub fn clean(&self) -> bool {
        self.violation.is_none()
    }
}

/// Per-run step cap for [`check_proto_random_run`]: a single small-scope
/// execution exceeding this under a probabilistically fair schedule is a
/// liveness failure, not slowness.
const PROTO_RUN_CAP: u64 = 1_000_000;

/// Drives fresh worlds from `make_world` under seeded uniformly-random
/// schedules until at least `min_steps` total scheduler steps have executed,
/// checking the protocol's invariants after every step and its terminal
/// invariants after every completed run. This is the long-horizon
/// complement to [`explore_proto`]: same machines, same oracles, but
/// millions of steps deep instead of exhaustive-but-shallow.
pub fn check_proto_random_run<P>(
    make_world: impl Fn() -> ProtoWorld<P>,
    seed: u64,
    min_steps: u64,
) -> ProtoRunReport
where
    P: ProtocolSim,
{
    let mut rng = SplitMix64::new(seed);
    let mut report = ProtoRunReport {
        protocol: make_world().proto.name(),
        steps: 0,
        completed_runs: 0,
        violation: None,
    };
    while report.steps < min_steps {
        let mut world = make_world();
        let mut run_steps = 0u64;
        while !world.all_finished() {
            let live: Vec<usize> = (0..world.thread_count())
                .filter(|&t| !world.threads[t].done)
                .collect();
            let tid = live[(rng.next() % live.len() as u64) as usize];
            world.step(tid);
            report.steps += 1;
            run_steps += 1;
            if let Err(v) = world.check_now() {
                report.violation = Some(v);
                return report;
            }
            if run_steps >= PROTO_RUN_CAP {
                report.violation = Some(ProtoViolation {
                    invariant: "deadlock-freedom",
                    detail: format!(
                        "{}: run (seed {seed}) still unfinished after {PROTO_RUN_CAP} \
                         steps of a fair schedule",
                        report.protocol
                    ),
                });
                return report;
            }
        }
        if let Err(v) = world.check_terminal_now() {
            report.violation = Some(v);
            return report;
        }
        report.completed_runs += 1;
    }
    report
}

/// One canonical small-scope configuration of a post-seed protocol, bundling
/// its exhaustive explorer and its random-walk driver behind a stable name.
pub struct ProtoScenario {
    /// Stable scenario name (referenced by the in-code safety comments and
    /// the `docs/ARCHITECTURE.md` table).
    pub name: &'static str,
    /// Protocol name ([`ProtocolSim::name`]).
    pub protocol: &'static str,
    /// The invariants this scenario checks (plus implicit
    /// `deadlock-freedom`).
    pub invariants: &'static [&'static str],
    explore_fn: Box<dyn Fn(usize) -> ProtoReport + Send + Sync>,
    random_fn: Box<dyn Fn(u64, u64) -> ProtoRunReport + Send + Sync>,
}

impl ProtoScenario {
    /// Exhaustively explores the scenario under a state budget.
    pub fn explore(&self, max_states: usize) -> ProtoReport {
        (self.explore_fn)(max_states)
    }

    /// Runs the seeded long-horizon simulation for at least `min_steps`
    /// scheduler steps.
    pub fn random_run(&self, seed: u64, min_steps: u64) -> ProtoRunReport {
        (self.random_fn)(seed, min_steps)
    }
}

fn scenario<P>(
    name: &'static str,
    make: impl Fn() -> P + Clone + Send + Sync + 'static,
) -> ProtoScenario
where
    P: ProtocolSim + Clone + 'static,
{
    let proto = make();
    let make2 = make.clone();
    ProtoScenario {
        name,
        protocol: proto.name(),
        invariants: proto.invariants(),
        explore_fn: Box::new(move |max_states| explore_proto(ProtoWorld::new(make()), max_states)),
        random_fn: Box::new(move |seed, min_steps| {
            check_proto_random_run(|| ProtoWorld::new(make2()), seed, min_steps)
        }),
    }
}

/// The canonical registry: one small-scope scenario per post-seed protocol,
/// as documented in `docs/ARCHITECTURE.md` ("Model checking the post-seed
/// protocols").
pub fn post_seed_scenarios() -> Vec<ProtoScenario> {
    vec![
        // WakerSet Dekker pair: three contenders, two lock/unlock rounds
        // each, so unlockers race registrations across rounds.
        scenario("proto.wakerset", || DekkerSim::new(3, 2)),
        // WakerQueue: two lockers bracketing a canceller whose cancel races
        // the holder's direct grant.
        scenario("proto.wakerqueue", || {
            WakerQueueSim::new(vec![
                QueueRole::Lock { rounds: 2 },
                QueueRole::Cancel,
                QueueRole::Lock { rounds: 1 },
            ])
        }),
        // with_two ordered acquire: overlapping pairs over three shards so
        // the second-lock trylock genuinely fails and the drop-and-retry
        // backoff path is explored.
        scenario("proto.with-two", || {
            TwoShardSim::new(
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
        }),
        // HemlockRw: one writer draining two stripes against an untimed
        // reader (withdraw-and-rearm) and a timed reader (withdraw-and-
        // abort).
        scenario("proto.rw", || {
            RwSim::new(
                2,
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
                ],
            )
        }),
        // Flat combining: two posters and a canceller; a waiter that takes
        // the lock mid-wait must combine its own still-posted record.
        scenario("proto.flat-combining", || {
            FcSim::new(vec![
                FcRole { cancel: false },
                FcRole { cancel: false },
                FcRole { cancel: true },
            ])
        }),
        // Reactor park and stop: a reader parking through store-then-arm
        // against a peer writing twice, the driver and a stopper.
        scenario("proto.reactor", || ReactorSim::new(2)),
        // Waiting in the epoll: a pool worker leading from it against a
        // pusher, a block_on follower sharing the reactor, and the peer
        // that completes the follower and readies the worker's socket.
        scenario("proto.driver", DriverSim::new),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_stable_and_unique() {
        let scenarios = post_seed_scenarios();
        assert_eq!(scenarios.len(), 7);
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "proto.wakerset",
                "proto.wakerqueue",
                "proto.with-two",
                "proto.rw",
                "proto.flat-combining",
                "proto.reactor",
                "proto.driver",
            ]
        );
        for s in &scenarios {
            assert!(
                !s.invariants.is_empty(),
                "{} declares no invariants",
                s.name
            );
        }
    }

    #[test]
    fn proto_budget_exhaustion_clears_exhaustive_flag() {
        let report = post_seed_scenarios()[0].explore(10);
        assert!(!report.exhaustive);
        assert!(report.states <= 10);
    }
}
