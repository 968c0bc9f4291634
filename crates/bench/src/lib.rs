//! # hemlock-bench
//!
//! Reproduction drivers for every table and figure in the Hemlock paper's
//! evaluation (§5), plus Criterion microbenchmarks. Each binary prints the
//! same rows/series the paper reports:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — space usage |
//! | `table2` | Table 2 — CTR impact on offcore access rates |
//! | `fig2`   | Figure 2 — MutexBench, maximum contention |
//! | `fig3`   | Figure 3 — MutexBench, moderate contention |
//! | `fig4_5` | Figures 4/5 — SPARC (MOESI) substitution |
//! | `fig6_7` | Figures 6/7 — AMD (MOESI) substitution |
//! | `fig8`   | Figure 8 — LevelDB-style readrandom |
//! | `fig9`   | Figure 9 — multi-waiting |
//! | `sec54`  | §5.4 — instrumented lock-usage characterization |
//! | `ring`   | §5.5 — token-ring circulation |
//! | `ablation` | Appendices A/B — the Hemlock variant family |
//! | `fairness` | §4 fairness contrast (extension) |
//!
//! Every binary resolves its lock algorithms at **runtime** through the
//! lock catalog ([`hemlock_locks::catalog`]): `--lock <name>[,<name>…]`
//! selects any subset of the registry (`fig2 --lock hemlock,mcs,ttas`), and
//! measurement loops are still monomorphized per algorithm via
//! [`catalog::with_lock_type`], so runtime selection costs nothing in the
//! hot path. All binaries also accept `--secs <f>`, `--runs <n>`,
//! `--max-threads <n>`, `--wait spin|yield[:N]`, `--quick`, `--csv`, and
//! `--help`.
//!
//! Extension binaries go beyond the paper's artifacts: `shardkv`
//! (sharded lock-table scaling, `hemlock-shard`; `--tasks` switches it to
//! async mode on the in-tree executor), `rwbench` (read-fraction × thread
//! sweep of the reader-writer locks, `hemlock_locks::rw` — its `--lock`
//! additionally accepts the catalog's `rw.*` view), `timeoutbench`
//! (abortable acquisition), `asyncbench` (tasks × worker-threads sweep of
//! the waker-parking `AsyncMutex` over the `async.*` view), and `loadgen`
//! (pipelined TCP load against the `hemlock-net` minikv server — conns ×
//! pipeline depth with Zipfian key skew, reporting p50/p99/p999).
//! `bench_ci` normalizes all machine-readable outputs into the
//! bench-trajectory artifact and gates regressions (see [`ci`]).

#![warn(missing_docs)]

pub mod ci;

use hemlock_coherence::Table2Algo;
use hemlock_core::raw::RawLock;
use hemlock_harness::{
    fmt_f64, median_of, mutex_bench, thread_sweep, Args, Contention, MutexBenchConfig, Spec, Table,
};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor, View};
use hemlock_simlock::algos::HemlockFlavor;
use std::time::Duration;

/// Default `--lock` selection for the paper's figure sweeps (the five
/// algorithms in Figures 2–8).
pub const FIGURE_LOCKS: &str = "mcs,clh,ticket,hemlock,hemlock.naive";

/// Default `--lock` selection for the appendix ablation (the full family).
pub const FAMILY_LOCKS: &str = "hemlock.naive,hemlock,hemlock.overlap,hemlock.ah,\
                                hemlock.v1,hemlock.v2,hemlock.parking,hemlock.chain";

/// Builds the shared option spec for a figure binary.
pub fn figure_spec(name: &'static str, about: &'static str) -> Spec {
    Spec::new(name, about).sweep()
}

/// Resolves the binary's `--lock` list (defaulting to `default`) through
/// the catalog; prints the error (including the known keys) and exits on an
/// unknown name.
pub fn locks_from_args(args: &Args, default: &str) -> Vec<&'static CatalogEntry> {
    match catalog::resolve_list(View::Lock, &args.get_str("lock", default)) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// Sweep parameters shared by the figure binaries.
#[derive(Clone, Debug)]
pub struct Sweep {
    /// Thread counts to visit.
    pub threads: Vec<usize>,
    /// Per-measurement interval.
    pub duration: Duration,
    /// Median-of-`runs` per point.
    pub runs: usize,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
}

impl Sweep {
    /// Builds a sweep from command-line arguments.
    ///
    /// Defaults are sized for this container (the paper used 10 s × 7 runs
    /// on a 72-CPU box; we default to 1 s × 3 runs up to 2× the available
    /// parallelism). `--quick` shrinks further for smoke tests.
    pub fn from_args(args: &Args) -> Self {
        let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
        let quick = args.has("quick");
        let max_threads = args.get("max-threads", if quick { 2 } else { 2 * hw });
        let duration = if quick {
            args.duration("secs", 0.1)
        } else {
            args.duration("secs", 1.0)
        };
        let runs = args.get("runs", if quick { 1 } else { 3 });
        Self {
            threads: thread_sweep(max_threads),
            duration,
            runs,
            csv: args.has("csv"),
        }
    }
}

/// Measures one MutexBench series (M steps/sec per thread count).
pub fn mutexbench_series<L: RawLock>(sweep: &Sweep, contention: Contention) -> Vec<f64> {
    sweep
        .threads
        .iter()
        .map(|&threads| {
            median_of(sweep.runs, || {
                mutex_bench::<L>(MutexBenchConfig {
                    threads,
                    duration: sweep.duration,
                    contention,
                })
                .mops()
            })
        })
        .collect()
}

struct MutexbenchVisitor<'a> {
    sweep: &'a Sweep,
    contention: Contention,
}

impl LockVisitor for MutexbenchVisitor<'_> {
    type Output = Vec<f64>;
    fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> Vec<f64> {
        mutexbench_series::<L>(self.sweep, self.contention)
    }
}

/// [`mutexbench_series`] for a catalog entry: statically dispatched through
/// [`catalog::with_lock_type`], so the measured loop is identical to the
/// monomorphized original.
pub fn mutexbench_series_for(
    entry: &'static CatalogEntry,
    sweep: &Sweep,
    contention: Contention,
) -> Vec<f64> {
    catalog::with_lock_type(entry, MutexbenchVisitor { sweep, contention })
}

/// Runs the MutexBench sweep for every selected entry, yielding
/// `print_series`-ready `(name, series)` rows.
pub fn mutexbench_all(
    entries: &[&'static CatalogEntry],
    sweep: &Sweep,
    contention: Contention,
) -> Vec<(&'static str, Vec<f64>)> {
    entries
        .iter()
        .map(|e| (e.meta.name, mutexbench_series_for(e, sweep, contention)))
        .collect()
}

/// The coherence-simulator stand-in for a catalog entry, where one exists
/// (the five Table 2 algorithms).
pub fn sim_algo_for(entry: &CatalogEntry) -> Option<Table2Algo> {
    match entry.key {
        "mcs" => Some(Table2Algo::Mcs),
        "clh" => Some(Table2Algo::Clh),
        "ticket" => Some(Table2Algo::Ticket),
        "hemlock" => Some(Table2Algo::Hemlock),
        "hemlock.naive" => Some(Table2Algo::HemlockNaive),
        _ => None,
    }
}

/// The simulated Hemlock flavor for a catalog entry, where one exists (the
/// six flavors the state-machine model implements).
pub fn sim_flavor_for(entry: &CatalogEntry) -> Option<HemlockFlavor> {
    match entry.key {
        "hemlock.naive" => Some(HemlockFlavor::Naive),
        "hemlock" | "hemlock.instr" => Some(HemlockFlavor::Ctr),
        "hemlock.overlap" => Some(HemlockFlavor::Overlap),
        "hemlock.ah" => Some(HemlockFlavor::Ah),
        "hemlock.v1" => Some(HemlockFlavor::V1),
        "hemlock.v2" => Some(HemlockFlavor::V2),
        _ => None,
    }
}

/// Prints a figure-style table: one row per thread count, one column per
/// lock series.
pub fn print_series(
    title: &str,
    threads: &[usize],
    series: &[(&str, Vec<f64>)],
    csv: bool,
    unit: &str,
) {
    eprintln!("# {title}");
    eprintln!("# unit: {unit}");
    let mut headers = vec!["Threads".to_string()];
    headers.extend(series.iter().map(|(n, _)| n.to_string()));
    let mut table = Table::new(headers);
    for (i, &t) in threads.iter().enumerate() {
        let mut row = vec![t.to_string()];
        row.extend(series.iter().map(|(_, v)| fmt_f64(v[i], 3)));
        table.row(row);
    }
    print!("{}", if csv { table.to_csv() } else { table.render() });
    println!();
}

/// Notes printed by binaries whose paper counterpart ran on hardware this
/// container does not have.
pub fn substitution_note(what: &str) {
    eprintln!("# SUBSTITUTION: {what}");
    eprintln!(
        "# See \"Hardware substitutions\" in docs/ARCHITECTURE.md for why the substitution \
         preserves the paper's claim."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        figure_spec("t", "test")
            .parse(s.split_whitespace().map(String::from))
            .unwrap()
    }

    #[test]
    fn sweep_quick_preset() {
        let s = Sweep::from_args(&args("--quick"));
        assert_eq!(s.runs, 1);
        assert!(s.duration <= Duration::from_millis(200));
        assert!(!s.threads.is_empty());
    }

    #[test]
    fn series_has_one_point_per_thread_count() {
        let sweep = Sweep {
            threads: vec![1, 2],
            duration: Duration::from_millis(40),
            runs: 1,
            csv: false,
        };
        let entry = catalog::find(View::Lock, "hemlock").unwrap();
        let series = mutexbench_series_for(entry, &sweep, Contention::Maximum);
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn default_lock_lists_resolve() {
        assert_eq!(
            catalog::resolve_list(View::Lock, FIGURE_LOCKS)
                .unwrap()
                .len(),
            5
        );
        assert_eq!(
            catalog::resolve_list(View::Lock, FAMILY_LOCKS)
                .unwrap()
                .len(),
            8
        );
    }

    #[test]
    fn sim_mappings_cover_the_default_figure_locks() {
        for entry in catalog::resolve_list(View::Lock, FIGURE_LOCKS).unwrap() {
            assert!(sim_algo_for(entry).is_some(), "{}", entry.key);
        }
        for entry in catalog::resolve_list(View::Lock, FAMILY_LOCKS).unwrap() {
            let parking = entry.meta.parking;
            assert_eq!(sim_flavor_for(entry).is_some(), !parking, "{}", entry.key);
        }
    }
}
