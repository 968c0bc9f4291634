//! # hemlock-simlock
//!
//! The lock algorithms of the Hemlock paper (Dice & Kogan, SPAA 2021), and
//! the protocols this workspace built on them, re-encoded as
//! **deterministic state machines over a simulated shared memory** — the
//! substrate for two of this workspace's reproductions:
//!
//! - `hemlock-model` explores schedules over these machines to check the
//!   paper's §3 theorems (mutual exclusion, FIFO, fere-local spinning,
//!   progress) and the post-seed protocols' own invariants;
//! - `hemlock-coherence` replays the lock machines' memory accesses through
//!   a MESI/MESIF/MOESI cache model to regenerate Table 2's offcore-access
//!   analysis.
//!
//! Every thread step performs at most one atomic operation
//! (load/store/CAS/SWAP/FAA — the paper's §3 memory model), so any
//! interleaving the hardware could produce at the algorithm level is
//! schedulable here, and each operation is visible to observers with
//! checker metadata (doorstep markers, spin-wait targets).
//!
//! There is one world, [`ProtoWorld`], over any [`ProtocolSim`]. A lock
//! algorithm ([`LockAlgorithm`]) runs on it through the [`LockSim`]
//! adapter, which interprets one [`Program`] per thread:
//!
//! ```
//! use hemlock_simlock::algos::{HemlockSim, HemlockFlavor};
//! use hemlock_simlock::{LockSim, Program, ProtoWorld};
//!
//! let algo = HemlockSim::new(2, 1, HemlockFlavor::Ctr);
//! let programs = vec![Program::lock_unlock(0, 0, 0, 10); 2];
//! let mut world = ProtoWorld::new(LockSim::new(algo, programs));
//! let steps = world.run_round_robin(100_000).expect("terminates");
//! assert!(world.all_finished() && steps > 0);
//! assert!(world.check_now().is_ok());
//! ```

#![deny(missing_docs)]

pub mod algo;
pub mod algos;
pub mod locks;
pub mod op;
pub mod program;
pub mod proto;
pub mod protocols;

pub use algo::{AlgoStep, LockAlgorithm};
pub use locks::{LockSim, LockThread};
pub use op::{AccessKind, Loc, Meta, Op, Until, Val};
pub use program::{Action, Program};
pub use proto::{ProtoThread, ProtoViolation, ProtoWorld, ProtocolSim, SplitMix64};

#[cfg(test)]
mod proptests {
    use crate::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
    use crate::{LockAlgorithm, LockSim, Meta, Program, ProtoWorld, SplitMix64};
    use proptest::prelude::*;

    /// Doorsteps, acquisitions and releases of one seeded random run.
    fn event_counts<A: LockAlgorithm>(sim: LockSim<A>, seed: u64) -> (usize, usize, u64) {
        let mut world = ProtoWorld::new(sim);
        let mut rng = SplitMix64::new(seed);
        let (mut doorsteps, mut acquisitions, mut steps) = (0, 0, 0u64);
        while !world.all_finished() {
            steps += 1;
            assert!(steps <= 20_000_000, "must terminate under a fair schedule");
            let tid = world.random_live(&mut rng);
            let held = world.threads[tid].state.holding().len();
            if let Some((_, Meta::Doorstep { .. })) = world.step(tid) {
                doorsteps += 1;
            }
            // A step completes at most one acquire or release.
            if world.threads[tid].state.holding().len() > held {
                acquisitions += 1;
            }
        }
        let releases = world.threads.iter().map(|t| t.state.releases()).sum();
        (doorsteps, acquisitions, releases)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Conservation law: every program run produces exactly
        /// threads × rounds doorsteps = acquisitions = releases, for every
        /// algorithm, any seed, any work sizes.
        #[test]
        fn event_conservation(
            seed: u64,
            threads in 1usize..4,
            rounds in 1u32..4,
            cs in 0u32..3,
            ncs in 0u32..3,
            algo_ix in 0usize..9,
        ) {
            let programs = vec![Program::lock_unlock(0, cs, ncs, rounds); threads];
            let expected = threads * rounds as usize;
            let (d, a, r) = match algo_ix {
                0 => event_counts(LockSim::new(TicketSim::new(threads, 1), programs), seed),
                1 => event_counts(LockSim::new(McsSim::new(threads, 1), programs), seed),
                2 => event_counts(LockSim::new(ClhSim::new(threads, 1), programs), seed),
                i => {
                    let flavor = HemlockFlavor::ALL[i - 3];
                    event_counts(
                        LockSim::new(HemlockSim::new(threads, 1, flavor), programs),
                        seed,
                    )
                }
            };
            prop_assert_eq!(d, expected, "doorsteps");
            prop_assert_eq!(a, expected, "acquisitions");
            prop_assert_eq!(r, expected as u64, "releases");
        }

        /// Memory stays quiescent after full termination: every lock's tail
        /// word is null again (the queue fully drained).
        #[test]
        fn hemlock_tail_drains(seed: u64, threads in 1usize..4, flavor_ix in 0usize..6) {
            let flavor = HemlockFlavor::ALL[flavor_ix];
            let algo = HemlockSim::new(threads, 1, flavor);
            let tail = algo.tail(0);
            let programs = vec![Program::lock_unlock(0, 0, 0, 2); threads];
            let mut world = ProtoWorld::new(LockSim::new(algo, programs));
            world.run_random(seed, 20_000_000).expect("terminates");
            prop_assert_eq!(world.mem[tail], 0, "{:?}: tail must drain", flavor);
        }
    }
}
