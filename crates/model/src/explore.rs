//! The one exhaustive explorer and the one seeded walker.
//!
//! Both drive a [`ProtoWorld`] over any [`ProtocolSim`]: the paper's §3
//! lock machines (through [`LockSim`](hemlock_simlock::LockSim)) and the
//! post-seed protocols alike. [`explore_proto`] enumerates every reachable
//! interleaving of a small configuration by DFS with state hashing; because
//! the machines busy-wait, the raw transition system is infinite in time
//! but finite in *state* — a failed poll leaves the state unchanged, so the
//! visited set collapses spin cycles. [`check_proto_random_run`] walks the
//! same machines under seeded fair schedules, millions of steps deep. Both
//! check the model's named invariants at every state they reach, and both
//! report `deadlock-freedom` — the explorer for a state no thread can
//! leave, the walker for a run that exceeds its cap.

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
            world.step(world.random_live(&mut rng));
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

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_simlock::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
    use hemlock_simlock::{Action, AlgoStep, LockAlgorithm, LockSim, Meta, Op, Program, Val};

    fn two_thread_world<A: LockAlgorithm>(algo: A, rounds: u32) -> ProtoWorld<LockSim<A>> {
        ProtoWorld::new(LockSim::new(
            algo,
            vec![Program::lock_unlock(0, 0, 0, rounds); 2],
        ))
    }

    #[test]
    fn hemlock_ctr_two_threads_exhaustive() {
        let report = explore_proto(
            two_thread_world(HemlockSim::new(2, 1, HemlockFlavor::Ctr), 2),
            500_000,
        );
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.exhaustive);
        assert!(
            report.states > 50,
            "trivially small space: {}",
            report.states
        );
        assert!(report.terminal_states >= 1);
    }

    #[test]
    fn hemlock_naive_two_threads_exhaustive() {
        let report = explore_proto(
            two_thread_world(HemlockSim::new(2, 1, HemlockFlavor::Naive), 2),
            500_000,
        );
        assert!(report.clean(), "violations: {:?}", report.violations);
        assert!(report.exhaustive);
    }

    #[test]
    fn baselines_two_threads_exhaustive() {
        for report in [
            explore_proto(two_thread_world(TicketSim::new(2, 1), 2), 500_000),
            explore_proto(two_thread_world(McsSim::new(2, 1), 2), 500_000),
            explore_proto(two_thread_world(ClhSim::new(2, 1), 2), 500_000),
        ] {
            assert!(report.clean(), "violations: {:?}", report.violations);
            assert!(report.exhaustive);
        }
    }

    #[test]
    fn progress_under_fair_schedules() {
        // Theorem 6, bounded: round-robin and ten seeded fair schedules
        // all finish under the walker's per-run cap.
        let make = || two_thread_world(HemlockSim::new(2, 1, HemlockFlavor::Ctr), 5);
        assert!(make().run_round_robin(1_000_000).is_some());
        for seed in 0..10 {
            let run = check_proto_random_run(make, seed, 1);
            assert!(run.clean(), "seed {seed}: {:?}", run.violation);
            assert_eq!(run.completed_runs, 1);
        }
    }

    // Sanity fixture for the checker itself: a "lock" that admits everyone
    // after a single probing load, so the mutual-exclusion oracle must trip.
    #[derive(Clone, Debug)]
    struct BrokenSim {
        threads: usize,
        /// Marks the probing load as the doorstep.
        doorstep: bool,
    }
    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    struct BrokenThread {
        pc: u8,
        lock: usize,
    }
    impl LockAlgorithm for BrokenSim {
        type Thread = BrokenThread;
        fn name(&self) -> &'static str {
            "Broken"
        }
        fn words(&self) -> usize {
            2 + 1 + self.threads // null, fake tail, data, privates
        }
        fn locks(&self) -> usize {
            1
        }
        fn initial_memory(&self) -> Vec<Val> {
            vec![0; self.words()]
        }
        fn new_thread(&self, _tid: usize) -> BrokenThread {
            BrokenThread { pc: 0, lock: 0 }
        }
        fn begin_acquire(&self, t: &mut BrokenThread, lock: usize) {
            t.lock = lock;
            t.pc = 1;
        }
        fn begin_release(&self, t: &mut BrokenThread, lock: usize) {
            t.lock = lock;
            t.pc = 3;
        }
        fn step(&self, t: &mut BrokenThread, _last: Val) -> AlgoStep {
            match t.pc {
                1 => {
                    t.pc = 2;
                    // Probe the "lock word" but ignore the answer.
                    let meta = if self.doorstep {
                        Meta::Doorstep { lock: t.lock }
                    } else {
                        Meta::None
                    };
                    AlgoStep::Issue(Op::Load(1), meta)
                }
                2 | 4 => {
                    t.pc = 0;
                    AlgoStep::Done
                }
                3 => {
                    t.pc = 4;
                    AlgoStep::Issue(Op::Store(1, 0), Meta::None)
                }
                _ => unreachable!(),
            }
        }
        fn data_word(&self, _lock: usize) -> usize {
            2
        }
        fn private_word(&self, tid: usize) -> usize {
            3 + tid
        }
    }

    fn broken_world(
        threads: usize,
        cs_steps: u32,
        doorstep: bool,
    ) -> ProtoWorld<LockSim<BrokenSim>> {
        let program = Program::new(
            vec![
                Action::Acquire(0),
                Action::CsWork {
                    lock: 0,
                    steps: cs_steps,
                },
                Action::Release(0),
            ],
            1,
        );
        let algo = BrokenSim { threads, doorstep };
        ProtoWorld::new(LockSim::new(algo, vec![program; threads]))
    }

    fn tripped(report: &ProtoReport, invariant: &str) -> bool {
        report.violations.iter().any(|v| v.invariant == invariant)
    }

    #[test]
    fn broken_algorithm_is_caught() {
        let report = explore_proto(broken_world(2, 2, true), 500_000);
        assert!(
            tripped(&report, "mutual-exclusion"),
            "broken lock must be caught; got {:?}",
            report.violations
        );
    }

    #[test]
    fn acquire_without_a_doorstep_trips_fifo() {
        // One thread, so nothing else can trip: the machine acquires
        // without marking its doorstep, a fault in its own annotation.
        let report = explore_proto(broken_world(1, 0, false), 500_000);
        assert!(tripped(&report, "fifo"), "{:?}", report.violations);
    }

    #[test]
    fn state_budget_exhaustion_clears_exhaustive_flag() {
        // A clean world cut off mid-exploration must not claim exhaustive
        // coverage: `clean()` alone is a sample, not a proof.
        let full = explore_proto(
            two_thread_world(HemlockSim::new(2, 1, HemlockFlavor::Ctr), 2),
            500_000,
        );
        assert!(full.exhaustive && full.states > 20);
        let cut = explore_proto(
            two_thread_world(HemlockSim::new(2, 1, HemlockFlavor::Ctr), 2),
            20,
        );
        assert!(
            !cut.exhaustive,
            "tiny budget cannot cover {} states",
            full.states
        );
        assert!(cut.states <= 20);
        assert!(cut.clean(), "cutoff alone is not a violation");
    }

    #[test]
    fn violations_found_before_cutoff_survive_budget_exhaustion() {
        // The broken lock trips mutual exclusion within the first few
        // explored states; a budget too small for the full space must
        // still report what it saw before the cutoff.
        let full = explore_proto(broken_world(3, 3, true), 500_000);
        assert!(full.exhaustive && !full.clean());
        let budget = full.states / 2;
        let cut = explore_proto(broken_world(3, 3, true), budget);
        assert!(
            !cut.exhaustive,
            "budget {budget} must truncate {}",
            full.states
        );
        assert!(
            tripped(&cut, "mutual-exclusion"),
            "violations found before the cutoff must be reported; got {:?}",
            cut.violations
        );
    }
}
