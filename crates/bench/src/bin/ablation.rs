//! Appendix A/B ablation: the Hemlock variant family side by side (any
//! catalog subset via `--lock`; defaults to the full family).
//!
//! The paper's appendices call out the family's design choices; this
//! binary measures each variant under three regimes:
//!
//! - single-thread latency (ns per acquire/release pair),
//! - MutexBench maximum contention (central-lock throughput),
//! - the Figure 9 multi-waiting leader (the regime where CTR backfires),
//!
//! plus the simulated coherence cost per contended pair where the
//! state-machine model implements the variant (parking/chain variants wait
//! through OS primitives and are not modeled); "Hardware substitutions" in
//! docs/ARCHITECTURE.md says what the simulation stands in for.

use hemlock_bench::{locks_from_args, sim_flavor_for, FAMILY_LOCKS};
use hemlock_coherence::{flavor_offcore, Protocol};
use hemlock_core::raw::RawLock;
use hemlock_harness::{
    fmt_f64, median_of, multiwait_bench, mutex_bench, uncontended_latency_ns, Contention,
    MultiwaitConfig, MutexBenchConfig, Spec, Table,
};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor};
use std::time::Duration;

struct Measure {
    threads: usize,
    duration: Duration,
    runs: usize,
}

struct Row {
    name: &'static str,
    latency_ns: f64,
    contended_mops: f64,
    multiwait_mops: f64,
}

impl LockVisitor for Measure {
    type Output = Row;
    fn visit<L: RawLock + 'static>(self, entry: &'static CatalogEntry) -> Row {
        let latency_ns = uncontended_latency_ns::<L>(200_000);
        let contended_mops = median_of(self.runs, || {
            mutex_bench::<L>(MutexBenchConfig {
                threads: self.threads,
                duration: self.duration,
                contention: Contention::Maximum,
            })
            .mops()
        });
        let multiwait_mops = median_of(self.runs, || {
            multiwait_bench::<L>(MultiwaitConfig {
                threads: self.threads,
                locks: 10,
                duration: self.duration,
            })
            .mops()
        });
        Row {
            name: entry.meta.name,
            latency_ns,
            contended_mops,
            multiwait_mops,
        }
    }
}

fn main() {
    let args = Spec::new("ablation", "Appendix A/B: the Hemlock variant family")
        .sweep()
        .value("threads", "contending thread count")
        .value("sim-threads", "simulated cores for the coherence model")
        .parse_env();
    let locks = locks_from_args(&args, FAMILY_LOCKS);
    let quick = args.has("quick");
    let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
    let threads = args.get("threads", if quick { 2 } else { 2 * hw });
    let duration = args.duration("secs", if quick { 0.1 } else { 0.5 });
    let runs = args.get("runs", if quick { 1 } else { 3 });
    let sim_threads = args.get("sim-threads", 12usize);

    eprintln!("# Hemlock family ablation ({threads} threads, {runs} run(s) x {duration:?})");
    let mut t = Table::new(vec![
        "Variant",
        "Uncontended ns/pair",
        "MaxContention M/s",
        "Multiwait leader M/s",
        "OffCore/pair (sim)",
    ]);
    for entry in &locks {
        let r = catalog::with_lock_type(
            entry,
            Measure {
                threads,
                duration,
                runs,
            },
        );
        // Simulated coherence cost per contended pair, where modeled.
        let sim = match sim_flavor_for(entry) {
            Some(flavor) => fmt_f64(
                flavor_offcore(flavor, sim_threads, 80, Protocol::Mesif, 3).offcore_per_pair(),
                2,
            ),
            None => "n/a".to_string(),
        };
        t.row(vec![
            r.name.to_string(),
            fmt_f64(r.latency_ns, 1),
            fmt_f64(r.contended_mops, 3),
            fmt_f64(r.multiwait_mops, 3),
            sim,
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
    eprintln!("# Paper expectations: AH best contended throughput when lifecycle permits;");
    eprintln!("# CTR variants lose to Hemlock- under multi-waiting (§5.6).");
}
