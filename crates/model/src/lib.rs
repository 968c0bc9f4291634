//! # hemlock-model
//!
//! Machine-checks the Hemlock paper's §3 correctness arguments, and the
//! safety arguments of the protocols this workspace built on the lock, on
//! the simulated machines from `hemlock-simlock`. There is one substrate
//! ([`ProtoWorld`](hemlock_simlock::ProtoWorld)), one exhaustive explorer
//! ([`explore_proto`]) and one seeded walker ([`check_proto_random_run`]).
//! The §3 lock machines run on it through
//! [`LockSim`](hemlock_simlock::LockSim), whose invariants are the
//! theorems' oracles:
//!
//! | Paper result | Check here |
//! |---|---|
//! | Theorem 2 (mutual exclusion) | `mutual-exclusion`: at most one thread in a lock's critical section, at every state |
//! | Theorem 6 (lockout-freedom) | `deadlock-freedom`: no reachable stuck state; every round-robin and seeded fair run finishes under its cap |
//! | Theorem 8 (FIFO) | `fifo`: no holder's doorstep ticket is above a waiter's, at every state |
//! | Theorem 10 (fere-local spinning) | `fere-local`: spinners on a Grant word ≤ its owner's associated locks, at every state |
//! | §2.2 Figure 1 | junction reconstruction + address-based hand-over draining |
//!
//! Exploration is bounded-exhaustive DFS with state hashing: busy-wait
//! loops collapse (a failed poll re-enters the same state), so small
//! configurations (2–3 threads, 1–2 locks, a few rounds) are covered
//! completely. [`paper_scenarios`] and [`post_seed_scenarios`] register the
//! canonical configurations.
//!
//! ```
//! use hemlock_model::explore_proto;
//! use hemlock_simlock::algos::{HemlockSim, HemlockFlavor};
//! use hemlock_simlock::{LockSim, Program, ProtoWorld};
//!
//! let world = ProtoWorld::new(LockSim::new(
//!     HemlockSim::new(2, 1, HemlockFlavor::Ctr),
//!     vec![Program::lock_unlock(0, 0, 0, 1); 2],
//! ));
//! let report = explore_proto(world, 500_000);
//! assert!(report.clean() && report.exhaustive);
//! ```

#![deny(missing_docs)]

pub mod explore;
pub mod protocols;
pub mod scenario;

pub use explore::{check_proto_random_run, explore_proto, ProtoReport, ProtoRunReport};
pub use protocols::{paper_scenarios, post_seed_scenarios, ProtoScenario};
pub use scenario::{build_junction, drain_junction, spin_census, Junction};

#[cfg(test)]
mod proptests {
    use super::*;
    use hemlock_simlock::algos::{HemlockFlavor, HemlockSim};
    use hemlock_simlock::{Action, LockSim, Program, ProtoWorld};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Arbitrary seeds, thread counts, and rounds: every flavor stays
        /// clean under randomized fair schedules (a complement to the
        /// bounded-exhaustive DFS, reaching deeper executions).
        #[test]
        fn random_schedules_stay_clean(
            seed: u64,
            threads in 2usize..5,
            rounds in 1u32..4,
            flavor_ix in 0usize..6,
        ) {
            let flavor = HemlockFlavor::ALL[flavor_ix];
            let programs = vec![Program::lock_unlock(0, 1, 1, rounds); threads];
            let make = || {
                ProtoWorld::new(LockSim::new(HemlockSim::new(threads, 1, flavor), programs.clone()))
            };
            let run = check_proto_random_run(make, seed, 1);
            prop_assert!(run.clean(), "{flavor:?}: {:?}", run.violation);
        }

        /// Two locks with nested acquisition: multi-lock safety under
        /// random schedules for every flavor.
        #[test]
        fn nested_two_locks_stay_clean(seed: u64, flavor_ix in 0usize..6) {
            let flavor = HemlockFlavor::ALL[flavor_ix];
            let nested = Program::new(
                vec![
                    Action::Acquire(0),
                    Action::Acquire(1),
                    Action::Release(1),
                    Action::Release(0),
                ],
                2,
            );
            let make = || {
                ProtoWorld::new(LockSim::new(HemlockSim::new(2, 2, flavor), vec![nested.clone(); 2]))
            };
            let run = check_proto_random_run(make, seed, 1);
            prop_assert!(run.clean(), "{flavor:?}: {:?}", run.violation);
        }
    }
}
