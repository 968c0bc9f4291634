//! Figure 9: the multi-waiting benchmark.
//!
//! 10 shared locks; a leader acquires all ascending and releases
//! descending; other threads hammer random single locks; only the leader's
//! completed steps count. Shape to reproduce: everyone degrades with more
//! threads; Hemlock− under-performs MCS/CLH once multi-waiting kicks in;
//! **Hemlock with CTR does worse than Hemlock−** — the one regime where the
//! optimization backfires (the Grant line ping-pongs in M state between
//! multiple RMW-polling waiters).

use hemlock_bench::{figure_spec, locks_from_args, print_series, Sweep, FIGURE_LOCKS};
use hemlock_core::raw::RawLock;
use hemlock_harness::{median_of, multiwait_bench, MultiwaitConfig};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor};

struct MultiwaitSeries<'a> {
    sweep: &'a Sweep,
    locks: usize,
}

impl LockVisitor for MultiwaitSeries<'_> {
    type Output = Vec<f64>;
    fn visit<L: RawLock + 'static>(self, _entry: &'static CatalogEntry) -> Vec<f64> {
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                median_of(self.sweep.runs, || {
                    multiwait_bench::<L>(MultiwaitConfig {
                        threads,
                        locks: self.locks,
                        duration: self.sweep.duration,
                    })
                    .mops()
                })
            })
            .collect()
    }
}

fn main() {
    let args = figure_spec("fig9", "Figure 9: multi-waiting")
        .value("locks", "number of shared locks the leader chains")
        .parse_env();
    let selected = locks_from_args(&args, FIGURE_LOCKS);
    let sweep = Sweep::from_args(&args);
    let locks = args.get("locks", 10usize);
    eprintln!(
        "# Figure 9 reproduction: multi-waiting, {locks} locks, leader steps only \
         ({} run(s) x {:?} per point)",
        sweep.runs, sweep.duration
    );
    eprintln!(
        "# Worst-case waiters on one word: CLH/MCS 1, Ticket T-1, Hemlock min(T-1, {})",
        locks - 1
    );
    let series: Vec<(&str, Vec<f64>)> = selected
        .iter()
        .map(|e| {
            let s = catalog::with_lock_type(
                e,
                MultiwaitSeries {
                    sweep: &sweep,
                    locks,
                },
            );
            (e.meta.name, s)
        })
        .collect();
    print_series(
        "Multi-waiting (leader throughput)",
        &sweep.threads,
        &series,
        sweep.csv,
        "M leader steps/sec",
    );
}
