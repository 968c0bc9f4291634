//! Figure 8: LevelDB `readrandom`.
//!
//! The paper populated a LevelDB 1.20 database with `fillseq`, then ran
//! fixed-duration `readrandom` across a thread sweep, swapping the central
//! `DBImpl::Mutex` between lock algorithms. Here the database is
//! `hemlock-minikv` (see "Hardware substitutions" in docs/ARCHITECTURE.md)
//! with its central mutex generic over the catalog-selected locks. Shape
//! to reproduce: Ticket slightly ahead at low thread counts, then fading;
//! MCS/CLH/Hemlock clustered.

use hemlock_bench::{
    figure_spec, locks_from_args, print_series, substitution_note, Sweep, FIGURE_LOCKS,
};
use hemlock_core::raw::RawLock;
use hemlock_harness::median_of;
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor};
use hemlock_minikv::{fill_seq, read_random, Db};

const VALUE_LEN: usize = 100; // db_bench default value size

struct ReadRandomSeries<'a> {
    sweep: &'a Sweep,
    entries: u64,
}

impl LockVisitor for ReadRandomSeries<'_> {
    type Output = Vec<f64>;
    fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> Vec<f64> {
        // Populate once per lock type (fillseq), reuse across the sweep
        // (--use_existing_db=1 in the paper's invocation).
        let db: Db<L> = Db::new(Default::default());
        fill_seq(&db, self.entries, VALUE_LEN);
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                median_of(self.sweep.runs, || {
                    read_random(&db, threads, self.entries, self.sweep.duration).ops_per_sec() / 1e6
                })
            })
            .collect()
    }
}

fn main() {
    let args = figure_spec("fig8", "Figure 8: LevelDB-style readrandom")
        .value("entries", "rows loaded by the fillseq phase")
        .parse_env();
    let locks = locks_from_args(&args, FIGURE_LOCKS);
    let sweep = Sweep::from_args(&args);
    let entries: u64 = args.get("entries", if args.has("quick") { 20_000 } else { 200_000 });
    substitution_note(
        "LevelDB 1.20 → hemlock-minikv (memtable + immutable runs behind one central mutex)",
    );
    eprintln!(
        "# Figure 8 reproduction: readrandom over {entries} fillseq entries, \
         {} run(s) x {:?} per point",
        sweep.runs, sweep.duration
    );
    let series: Vec<(&str, Vec<f64>)> = locks
        .iter()
        .map(|e| {
            let series = catalog::with_lock_type(
                e,
                ReadRandomSeries {
                    sweep: &sweep,
                    entries,
                },
            );
            (e.meta.name, series)
        })
        .collect();
    print_series(
        "LevelDB-style readrandom",
        &sweep.threads,
        &series,
        sweep.csv,
        "M ops/sec (aggregate)",
    );
}
