//! The scenario registries: the paper's §3 lock machines and the post-seed
//! protocols, each as named small-scope configurations on the one
//! substrate.
//!
//! [`paper_scenarios`] runs each lock machine through
//! [`LockSim`], whose invariants are the §3
//! theorems. [`post_seed_scenarios`] covers the layers this workspace grew
//! on top of the locks (`WakerSet`, `WakerQueue`, `ShardedTable::with_two`,
//! `HemlockRw`, the flat-combining batch layer, the reactor and the
//! executor's epoll waiting), hand-rolled protocols with their own safety
//! arguments, each re-encoded in `hemlock_simlock::protocols`. Every
//! scenario bundles the one exhaustive explorer ([`explore_proto`]) and the
//! one seeded walker ([`check_proto_random_run`]) behind a stable name;
//! `docs/ARCHITECTURE.md` ("Model checking") tabulates them, and each
//! protocol's in-code safety comment names its scenario.

use crate::explore::{check_proto_random_run, explore_proto, ProtoReport, ProtoRunReport};
use hemlock_simlock::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
use hemlock_simlock::protocols::{
    DekkerSim, DriverSim, FcRole, FcSim, QueueRole, ReactorSim, RwRole, RwSim, TwoShardOp,
    TwoShardSim, WakerQueueSim,
};
use hemlock_simlock::{LockSim, Program, ProtoWorld, ProtocolSim};

/// One canonical small-scope configuration of a model, bundling its
/// exhaustive explorer and its random-walk driver behind a stable name.
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

/// The Figure 1 junction at two locks: a leader takes both locks, and one
/// waiter per lock spins on the leader's one Grant word.
fn junction() -> Vec<Program> {
    vec![
        Program::multiwait_leader(2, 1),
        Program::lock_unlock(0, 0, 0, 1),
        Program::lock_unlock(1, 0, 0, 1),
    ]
}

/// Two threads, two rounds of a two-step critical section each.
fn two_with_cs_work() -> Vec<Program> {
    vec![Program::lock_unlock(0, 2, 0, 2); 2]
}

/// The paper's registry: one small-scope scenario per §3 lock machine,
/// checking mutual exclusion (Theorem 2), FIFO (Theorem 8), fere-local
/// spinning (Theorem 10) and deadlock-freedom (Theorem 6, bounded). The six
/// Hemlock flavours run the Figure 1 junction, where fere-local spinning is
/// tight; the three baselines run two threads with critical-section work.
pub fn paper_scenarios() -> Vec<ProtoScenario> {
    let hemlock = |name, flavor| {
        scenario(name, move || {
            LockSim::new(HemlockSim::new(3, 2, flavor), junction())
        })
    };
    vec![
        hemlock("paper.hemlock", HemlockFlavor::Ctr),
        hemlock("paper.hemlock-", HemlockFlavor::Naive),
        hemlock("paper.overlap", HemlockFlavor::Overlap),
        hemlock("paper.ah", HemlockFlavor::Ah),
        hemlock("paper.hov1", HemlockFlavor::V1),
        hemlock("paper.hov2", HemlockFlavor::V2),
        scenario("paper.mcs", || {
            LockSim::new(McsSim::new(2, 1), two_with_cs_work())
        }),
        scenario("paper.clh", || {
            LockSim::new(ClhSim::new(2, 1), two_with_cs_work())
        }),
        scenario("paper.ticket", || {
            LockSim::new(TicketSim::new(2, 1), two_with_cs_work())
        }),
    ]
}

/// The post-seed registry: one small-scope scenario per protocol, as
/// documented in `docs/ARCHITECTURE.md` ("Model checking").
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
        let scenarios: Vec<ProtoScenario> = paper_scenarios()
            .into_iter()
            .chain(post_seed_scenarios())
            .collect();
        let names: Vec<&str> = scenarios.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "paper.hemlock",
                "paper.hemlock-",
                "paper.overlap",
                "paper.ah",
                "paper.hov1",
                "paper.hov2",
                "paper.mcs",
                "paper.clh",
                "paper.ticket",
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
