//! Trace-driven experiments: replay simlock lock worlds through the cache
//! model.
//!
//! This regenerates the paper's Table 2 ("Impact of CTR on OffCore Access
//! Rates"): MutexBench with empty critical and non-critical sections, all
//! five lock algorithms, reporting offcore accesses **per lock-unlock
//! pair**. Absolute counts differ from the paper's PMU values (their 32
//! hyperthreaded cores vs. our abstract cores; prefetchers; TLBs), but the
//! ordering the paper reports is structural and reproduces here:
//! Hemlock+CTR < Hemlock− < MCS ≈ CLH ≪ Ticket.

use crate::cache::{CacheModel, CoreStats, Protocol};
use hemlock_simlock::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
use hemlock_simlock::{LockAlgorithm, LockSim, Program, ProtoWorld, SplitMix64};

/// Result of one trace replay.
#[derive(Clone, Debug)]
pub struct TraceStats {
    /// Algorithm display name.
    pub name: &'static str,
    /// Aggregated cache-model counters.
    pub totals: CoreStats,
    /// Completed lock-unlock pairs.
    pub pairs: u64,
    /// Scheduler steps consumed.
    pub steps: u64,
}

impl TraceStats {
    /// The Table 2 metric: offcore accesses per lock-unlock pair.
    pub fn offcore_per_pair(&self) -> f64 {
        if self.pairs == 0 {
            return 0.0;
        }
        self.totals.offcore_total() as f64 / self.pairs as f64
    }
}

/// Replays `world` under a seeded random fair schedule, feeding every
/// executed memory operation through a fresh cache model.
pub fn run_trace<A: LockAlgorithm>(
    mut world: ProtoWorld<LockSim<A>>,
    protocol: Protocol,
    seed: u64,
    max_steps: u64,
) -> TraceStats {
    let name = world.proto.algo().name();
    let cores = world.thread_count();
    let mut cache = CacheModel::new(protocol, cores);
    let mut rng = SplitMix64::new(seed);
    let mut steps = 0u64;

    while !world.all_finished() {
        let tid = world.random_live(&mut rng);
        if let Some((op, _)) = world.step(tid) {
            let line = world.proto.algo().line_of(op.loc());
            cache.access(tid, line, op.access_kind());
        }
        steps += 1;
        if steps >= max_steps {
            break;
        }
    }
    debug_assert!(cache.check_invariants().is_ok());
    TraceStats {
        name,
        totals: cache.total(),
        pairs: world.threads.iter().map(|t| t.state.releases()).sum(),
        steps,
    }
}

/// Replays MutexBench with empty critical and non-critical sections:
/// `threads` threads, each running `rounds` lock-unlock pairs on lock 0.
fn empty_sections<A: LockAlgorithm>(
    algo: A,
    threads: usize,
    rounds: u32,
    protocol: Protocol,
    seed: u64,
) -> TraceStats {
    let programs = vec![Program::lock_unlock(0, 0, 0, rounds); threads];
    let max_steps = (threads as u64) * (rounds as u64) * 10_000;
    let world = ProtoWorld::new(LockSim::new(algo, programs));
    run_trace(world, protocol, seed, max_steps)
}

/// Which algorithms Table 2 compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table2Algo {
    /// Classic MCS.
    Mcs,
    /// CLH (standard interface).
    Clh,
    /// Ticket lock.
    Ticket,
    /// Hemlock with CTR.
    Hemlock,
    /// Hemlock without CTR (Listing 1).
    HemlockNaive,
}

impl Table2Algo {
    /// All rows, in the paper's order.
    pub const ALL: [Table2Algo; 5] = [
        Table2Algo::Mcs,
        Table2Algo::Clh,
        Table2Algo::Ticket,
        Table2Algo::Hemlock,
        Table2Algo::HemlockNaive,
    ];
}

/// Runs one Table 2 row: `threads` threads hammering a single lock with
/// empty critical and non-critical sections for `rounds` rounds each.
pub fn table2_row(
    algo: Table2Algo,
    threads: usize,
    rounds: u32,
    protocol: Protocol,
    seed: u64,
) -> TraceStats {
    match algo {
        Table2Algo::Mcs => empty_sections(McsSim::new(threads, 1), threads, rounds, protocol, seed),
        Table2Algo::Clh => empty_sections(ClhSim::new(threads, 1), threads, rounds, protocol, seed),
        Table2Algo::Ticket => {
            empty_sections(TicketSim::new(threads, 1), threads, rounds, protocol, seed)
        }
        Table2Algo::Hemlock => flavor_offcore(HemlockFlavor::Ctr, threads, rounds, protocol, seed),
        Table2Algo::HemlockNaive => {
            flavor_offcore(HemlockFlavor::Naive, threads, rounds, protocol, seed)
        }
    }
}

/// Runs the whole Table 2 (median of `runs` seeds per row).
pub fn table2(threads: usize, rounds: u32, protocol: Protocol, runs: u64) -> Vec<(String, f64)> {
    Table2Algo::ALL
        .iter()
        .map(|&a| {
            let mut samples: Vec<f64> = (0..runs)
                .map(|seed| table2_row(a, threads, rounds, protocol, seed).offcore_per_pair())
                .collect();
            samples.sort_by(|x, y| x.partial_cmp(y).unwrap());
            let median = samples[samples.len() / 2];
            let name = table2_row(a, 2, 1, protocol, 0).name.to_string();
            (name, median)
        })
        .collect()
}

/// Offcore-per-pair for any Hemlock flavor (the appendix-variant ablation):
/// same workload as [`table2_row`].
pub fn flavor_offcore(
    flavor: HemlockFlavor,
    threads: usize,
    rounds: u32,
    protocol: Protocol,
    seed: u64,
) -> TraceStats {
    let algo = HemlockSim::new(threads, 1, flavor);
    empty_sections(algo, threads, rounds, protocol, seed)
}

/// The Figure 9 regime in the simulator: a leader holding all `locks` locks
/// with one waiter per lock (maximal multi-waiting), comparing CTR vs naive
/// polling traffic on the leader's Grant word.
pub fn multiwait_offcore(
    locks: usize,
    rounds: u32,
    flavor: HemlockFlavor,
    protocol: Protocol,
    seed: u64,
) -> TraceStats {
    let threads = locks + 1;
    let mut programs = vec![Program::multiwait_leader(locks, rounds)];
    for lock in 0..locks {
        programs.push(Program::lock_unlock(lock, 0, 0, rounds));
    }
    let world = ProtoWorld::new(LockSim::new(
        HemlockSim::new(threads, locks, flavor),
        programs,
    ));
    let max_steps = (threads as u64) * (rounds as u64) * 100_000;
    run_trace(world, protocol, seed, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_trace_is_cheap() {
        let stats = table2_row(Table2Algo::Hemlock, 1, 100, Protocol::Mesif, 1);
        assert_eq!(stats.pairs, 100);
        // Uncontended: after warmup the lock word stays in the single
        // core's cache; offcore per pair tends to zero.
        assert!(
            stats.offcore_per_pair() < 0.5,
            "{}",
            stats.offcore_per_pair()
        );
    }

    #[test]
    fn table2_ordering_matches_paper() {
        // The paper's Table 2 (32 threads): Hemlock 6.81 < Hemlock− 7.92 <
        // MCS 10.6 ≈ CLH 11.1 ≪ Ticket 45.9. Check the *ordering* at a
        // smaller scale with several seeds. (The Ticket gap grows with the
        // waiter count — each handover invalidates every polling waiter —
        // so it needs a reasonable thread count to dominate.)
        let threads = 16;
        let rounds = 40;
        let get = |a| {
            let mut v: Vec<f64> = (0..5u64)
                .map(|s| table2_row(a, threads, rounds, Protocol::Mesif, s).offcore_per_pair())
                .collect();
            v.sort_by(|x, y| x.partial_cmp(y).unwrap());
            v[2]
        };
        let hemlock = get(Table2Algo::Hemlock);
        let hemlock_naive = get(Table2Algo::HemlockNaive);
        let mcs = get(Table2Algo::Mcs);
        let clh = get(Table2Algo::Clh);
        let ticket = get(Table2Algo::Ticket);

        assert!(
            hemlock < hemlock_naive,
            "CTR must reduce offcore: {hemlock} vs {hemlock_naive}"
        );
        assert!(
            hemlock < mcs && hemlock < clh,
            "Hemlock ({hemlock}) must beat MCS ({mcs}) and CLH ({clh})"
        );
        assert!(
            ticket > 2.0 * mcs.min(clh),
            "Ticket's global spinning ({ticket}) must dwarf queue locks ({mcs}, {clh})"
        );
    }

    #[test]
    fn ticket_offcore_scales_with_threads() {
        // Global spinning: every handover invalidates every waiter.
        let at = |threads| {
            table2_row(Table2Algo::Ticket, threads, 50, Protocol::Mesif, 3).offcore_per_pair()
        };
        let t4 = at(4);
        let t12 = at(12);
        assert!(
            t12 > 1.5 * t4,
            "ticket offcore/pair must grow with threads: {t4} → {t12}"
        );
    }

    #[test]
    fn queue_lock_offcore_is_flat_in_threads() {
        let at = |threads| {
            table2_row(Table2Algo::Hemlock, threads, 50, Protocol::Mesif, 3).offcore_per_pair()
        };
        let t4 = at(4);
        let t12 = at(12);
        assert!(
            t12 < 2.0 * t4 + 2.0,
            "local spinning must keep offcore/pair near-flat: {t4} → {t12}"
        );
    }

    #[test]
    fn ctr_is_harmful_under_multiwaiting() {
        // §5.6: "The CTR optimization is actually harmful under high
        // degrees of multi-waiting" — the Grant line ping-pongs in M state.
        let ctr = multiwait_offcore(6, 30, HemlockFlavor::Ctr, Protocol::Mesif, 7);
        let naive = multiwait_offcore(6, 30, HemlockFlavor::Naive, Protocol::Mesif, 7);
        assert!(
            ctr.totals.offcore_total() > naive.totals.offcore_total(),
            "CTR {} must exceed naive {} under multi-waiting",
            ctr.totals.offcore_total(),
            naive.totals.offcore_total()
        );
    }

    #[test]
    fn table2_replay_is_pinned() {
        // Exact offcore totals, pairs and steps of the seed-0 Table 2 rows
        // and of one multi-waiting replay. The ordering tests above would
        // pass an op-order slip in the replayed machines; these would not.
        let golden = [
            (Table2Algo::Mcs, 5_507, 59_268),
            (Table2Algo::Clh, 3_837, 39_608),
            (Table2Algo::Ticket, 12_591, 29_538),
            (Table2Algo::Hemlock, 3_764, 30_131),
            (Table2Algo::HemlockNaive, 3_920, 40_354),
        ];
        for (algo, offcore, steps) in golden {
            let s = table2_row(algo, 16, 40, Protocol::Mesif, 0);
            assert_eq!(
                (s.totals.offcore_total(), s.pairs, s.steps),
                (offcore, 640, steps),
                "{algo:?}"
            );
        }
        let s = multiwait_offcore(6, 30, HemlockFlavor::Ctr, Protocol::Mesif, 7);
        assert_eq!(
            (s.totals.offcore_total(), s.pairs, s.steps),
            (528, 360, 1_344)
        );
    }

    #[test]
    fn moesi_avoids_writebacks() {
        // Needs an algorithm with load-polling so read-misses hit dirty
        // lines: MCS waiters poll their own flag, which the previous owner
        // dirties on handover. (Hemlock+CTR issues no plain loads at all.)
        let mesi = table2_row(Table2Algo::Mcs, 4, 50, Protocol::Mesi, 2);
        let moesi = table2_row(Table2Algo::Mcs, 4, 50, Protocol::Moesi, 2);
        assert!(mesi.totals.writebacks > 0);
        assert_eq!(moesi.totals.writebacks, 0, "MOESI keeps dirty data in O");
    }
}
