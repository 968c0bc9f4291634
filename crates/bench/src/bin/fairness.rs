//! Fairness extension (not a numbered paper figure): quantifies §4's
//! FIFO-vs-unfair contrast. Ticket/MCS/CLH/Hemlock admit threads in arrival
//! order, so per-thread throughput stays uniform (Jain index → 1) and the
//! acquisition-latency tail stays bounded; TAS/TTAS "may allow unfairness
//! and even indefinite starvation".

use hemlock_bench::locks_from_args;
use hemlock_core::raw::RawLock;
use hemlock_harness::{fairness_bench, fmt_f64, Spec, Table};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor};
use std::time::Duration;

struct Row<'a> {
    threads: usize,
    duration: Duration,
    table: &'a mut Table,
}

impl LockVisitor for Row<'_> {
    type Output = ();
    fn visit<L: RawLock + 'static>(self, entry: &'static CatalogEntry) {
        let r = fairness_bench::<L>(self.threads, self.duration);
        self.table.row(vec![
            entry.meta.name.to_string(),
            if entry.meta.fifo { "yes" } else { "no" }.to_string(),
            fmt_f64(r.jain_index(), 4),
            if r.max_min_ratio().is_finite() {
                fmt_f64(r.max_min_ratio(), 2)
            } else {
                "inf (starvation)".to_string()
            },
            r.latency.quantile(0.50).to_string(),
            r.latency.quantile(0.99).to_string(),
            fmt_f64(r.throughput.mops(), 3),
        ]);
    }
}

fn main() {
    let args = Spec::new(
        "fairness",
        "Fairness under sustained contention (§4 contrast)",
    )
    .sweep()
    .value("threads", "contending thread count")
    .parse_env();
    let locks = locks_from_args(&args, "ticket,mcs,clh,hemlock,hemlock.naive,tas,ttas");
    let quick = args.has("quick");
    let hw = std::thread::available_parallelism().map_or(2, |n| n.get());
    let threads = args.get("threads", 2 * hw);
    let duration = args.duration("secs", if quick { 0.15 } else { 1.0 });

    eprintln!("# Fairness under sustained contention ({threads} threads, {duration:?})");
    eprintln!("# Jain index: 1.0 = perfectly fair; 1/{threads} = one thread monopolizes.");
    let mut t = Table::new(vec![
        "Lock",
        "FIFO",
        "Jain",
        "max/min ops",
        "p50 ns",
        "p99 ns",
        "M ops/s",
    ]);
    for entry in &locks {
        catalog::with_lock_type(
            entry,
            Row {
                threads,
                duration,
                table: &mut t,
            },
        );
    }
    print!(
        "{}",
        if args.has("csv") {
            t.to_csv()
        } else {
            t.render()
        }
    );
}
