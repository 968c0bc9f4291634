//! Table 2: impact of CTR on offcore access rates.
//!
//! Two columns, as in the paper:
//!
//! - **Rate** — M lock-unlock pairs/sec from real MutexBench at maximum
//!   contention (the paper used 32 threads on the X5-2; thread count here
//!   is configurable and defaults to the container's capacity).
//! - **OffCore/pair** — offcore accesses (demand reads + RFOs) per pair,
//!   from the MESIF cache-coherence simulator replaying the same workload
//!   (the paper read PMU counters; see "Hardware substitutions" in
//!   docs/ARCHITECTURE.md).
//!
//! Shape to reproduce: Hemlock+CTR has the highest rate and the lowest
//! offcore; Hemlock− sits between; MCS/CLH are moderately elevated (the
//! node-reinitialization stores); Ticket is far worse on both.

use hemlock_bench::{locks_from_args, sim_algo_for, FIGURE_LOCKS};
use hemlock_coherence::{table2_row, Protocol, Table2Algo};
use hemlock_core::raw::RawLock;
use hemlock_harness::{fmt_f64, median_of, mutex_bench, Contention, MutexBenchConfig, Spec, Table};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor};
use std::time::Duration;

struct Rate {
    threads: usize,
    secs: f64,
    runs: usize,
}

impl LockVisitor for Rate {
    type Output = f64;
    fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> f64 {
        median_of(self.runs, || {
            mutex_bench::<L>(MutexBenchConfig {
                threads: self.threads,
                duration: Duration::from_secs_f64(self.secs),
                contention: Contention::Maximum,
            })
            .mops()
        })
    }
}

fn offcore(algo: Table2Algo, threads: usize, rounds: u32, runs: u64) -> f64 {
    let mut v: Vec<f64> = (0..runs)
        .map(|seed| table2_row(algo, threads, rounds, Protocol::Mesif, seed).offcore_per_pair())
        .collect();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn main() {
    let args = Spec::new("table2", "Table 2: CTR impact on offcore access rates")
        .sweep()
        .value("threads", "real-benchmark thread count")
        .value("sim-threads", "simulated cores for the coherence model")
        .value("rounds", "simulated lock-unlock rounds per core")
        .parse_env();
    let locks = locks_from_args(&args, FIGURE_LOCKS);
    let quick = args.has("quick");
    let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
    let threads = args.get("threads", if quick { 2 } else { 2 * hw });
    let sim_threads = args.get("sim-threads", 16usize);
    let secs = args.get("secs", if quick { 0.1 } else { 1.0 });
    let runs = args.get("runs", if quick { 1 } else { 3 });
    let rounds = args.get("rounds", if quick { 30u32 } else { 200 });

    eprintln!("# Table 2 reproduction: CTR impact on offcore access rates");
    eprintln!("# Rate: real MutexBench, {threads} threads, empty CS/NCS, median of {runs}.");
    eprintln!("# OffCore: MESIF coherence simulation, {sim_threads} simulated cores.");

    let mut t = Table::new(vec!["Lock", "Rate (M pairs/s)", "OffCore/pair (sim)"]);
    for entry in &locks {
        let rate = catalog::with_lock_type(
            entry,
            Rate {
                threads,
                secs,
                runs,
            },
        );
        let offcore_cell = match sim_algo_for(entry) {
            Some(algo) => fmt_f64(offcore(algo, sim_threads, rounds, runs as u64), 2),
            None => "n/a".to_string(),
        };
        t.row(vec![
            entry.meta.name.to_string(),
            fmt_f64(rate, 2),
            offcore_cell,
        ]);
    }
    print!(
        "{}",
        if args.has("csv") {
            t.to_csv()
        } else {
            t.render()
        }
    );
    println!();
    eprintln!("# Paper (X5-2, 32 threads): MCS 3.81/10.6  CLH 3.82/11.1  Ticket 2.66/45.9");
    eprintln!("#                           Hemlock 4.48/6.81  Hemlock w/o CTR 3.62/7.92");
}
