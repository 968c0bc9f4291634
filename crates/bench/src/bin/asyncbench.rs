//! `asyncbench`: the waker-parking async subsystem under task contention.
//!
//! The experiment the async layer exists for: **tasks × worker-threads ×
//! `--lock`** over one contended [`AsyncMutex`], where every acquisition is
//! a `lock().await` — contended acquisitions park the *task* (its waker) in
//! the FIFO queue, not an OS thread. Per configuration it reports
//!
//! - **throughput** — acquisitions per second across all tasks;
//! - **wakeup p99** — the 99th percentile of request→grant latency over
//!   all acquisitions (under contention this is dominated by the
//!   park→wake→hand-off path, i.e. the quantity the direct-hand-off design
//!   is supposed to bound), from the log-bucketed histogram;
//! - **fairness spread** — max/min of the per-task acquisition counts
//!   (computed through the same histogram). Direct FIFO hand-off should
//!   keep this close to 1; a barging design would starve parked tasks.
//!
//! Locks resolve against the catalog's **`async.*` view**
//! (`hemlock_locks::catalog`, `View::Async`) — the asyncable (= abortable)
//! rows; the
//! measurement loop is monomorphized per guard algorithm through
//! `catalog::with_timed_lock_type`, so runtime selection costs nothing.
//!
//! Output: aligned table (default), `--csv`, or `--json` (normalized
//! bench-trajectory records with `wakeup_p99_ns` / `fairness_spread`
//! extras; `bench_ci --asyncbench` consumes them — unknown keys are
//! ignored by its parser, so the gate sees only the throughput). Banners
//! and progress go to stderr so stdout stays machine-readable.

use hemlock_async::AsyncMutex;
use hemlock_bench::ci::{self, Record, RecordBuilder};
use hemlock_bench::Sweep;
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawTryLock;
use hemlock_harness::executor::{yield_now, TaskPool};
use hemlock_harness::{fmt_f64, Histogram, Spec, Table};
use hemlock_locks::catalog::{self, CatalogEntry, TimedLockVisitor, View};
use hemlock_obs::Pcts;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Workload {
    tasks: usize,
    workers: usize,
    duration: Duration,
}

struct RunStats {
    acquired: u64,
    /// Measured wall-clock from spawn to last join — the drain after the
    /// stop flag (every queued task finishing its in-flight iteration)
    /// counts ops, so it must count time too.
    elapsed: Duration,
    latency: Histogram,
    /// Per-task acquisition counts, bucketed — min/max give the spread.
    per_task: Histogram,
}

/// One timed run: `tasks` tasks on `workers` pool threads, all hammering a
/// single [`AsyncMutex`]. Latency is lock-request → grant, per
/// acquisition.
fn run_once<L: RawTryLock + 'static>(w: Workload) -> RunStats {
    let mutex: Arc<AsyncMutex<u64, L>> = Arc::new(AsyncMutex::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let pool = TaskPool::new(w.workers);
    let start = Instant::now();
    let handles: Vec<_> = (0..w.tasks)
        .map(|_| {
            let mutex = Arc::clone(&mutex);
            let stop = Arc::clone(&stop);
            pool.spawn(async move {
                let mut local = 0u64;
                let mut latency = Histogram::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    let mut g = mutex.lock().await;
                    latency.record(t0.elapsed().as_nanos() as u64);
                    *g += 1;
                    drop(g);
                    local += 1;
                    // Cooperative gap between acquisitions: real tasks do
                    // work between locks. Without it, a task that keeps
                    // winning the uncontended fast path on a single worker
                    // would starve tasks the executor has not started yet
                    // (they can only park in the mutex queue once polled).
                    yield_now().await;
                }
                (local, latency)
            })
        })
        .collect();
    std::thread::sleep(w.duration);
    stop.store(true, Ordering::Relaxed);
    let mut stats = RunStats {
        acquired: 0,
        elapsed: Duration::ZERO,
        latency: Histogram::new(),
        per_task: Histogram::new(),
    };
    for h in handles {
        let (local, latency) = h.join();
        stats.acquired += local;
        stats.latency.merge(&latency);
        stats.per_task.record(local);
    }
    stats.elapsed = start.elapsed();
    stats
}

struct Row {
    meta: LockMeta,
    tasks: usize,
    workers: usize,
    ops_per_sec: f64,
    wakeup: Pcts,
    fairness_spread: f64,
}

struct AsyncSweep<'a> {
    sweep: &'a Sweep,
    tasks: &'a [usize],
}

impl TimedLockVisitor for AsyncSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        let mut rows = Vec::new();
        for &tasks in self.tasks {
            for &workers in &self.sweep.threads {
                let mut runs: Vec<RunStats> = (0..self.sweep.runs.max(1))
                    .map(|_| {
                        run_once::<L>(Workload {
                            tasks,
                            workers,
                            duration: self.sweep.duration,
                        })
                    })
                    .collect();
                runs.sort_by_key(|r| r.acquired);
                let median = runs.remove(runs.len() / 2);
                let ops_per_sec = median.acquired as f64 / median.elapsed.as_secs_f64();
                // One pcts() call instead of per-bin quantile picking:
                // the shared summary struct is what every bench reports.
                let wakeup = median.latency.pcts();
                // Spread from the per-task count histogram: max/min (a
                // starved task drives this toward infinity; cap via >=1).
                let fairness_spread =
                    median.per_task.max() as f64 / median.per_task.min().max(1) as f64;
                eprintln!(
                    "# asyncbench {} tasks={} workers={}: {:.2} Mops/s, wakeup p99 {:.1}us, spread {:.2}",
                    entry.meta.name,
                    tasks,
                    workers,
                    ops_per_sec / 1e6,
                    wakeup.p99 as f64 / 1e3,
                    fairness_spread,
                );
                rows.push(Row {
                    meta: entry.meta,
                    tasks,
                    workers,
                    ops_per_sec,
                    wakeup,
                    fairness_spread,
                });
            }
        }
        rows
    }
}

fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Bench-trajectory records through the shared [`RecordBuilder`]:
/// `wakeup_p99_ns` / `fairness_spread` ride as schema-invisible extras.
fn to_json(rows: &[Row]) -> String {
    let records: Vec<Record> = rows
        .iter()
        .map(|r| {
            RecordBuilder::new(format!("asyncbench.t{}", r.tasks), r.meta.name)
                .threads(r.workers)
                .ops_per_sec(r.ops_per_sec)
                .extra("wakeup_p50_ns", r.wakeup.p50 as f64)
                .extra("wakeup_p99_ns", r.wakeup.p99 as f64)
                .extra("wakeup_p999_ns", r.wakeup.p999 as f64)
                .extra("fairness_spread", r.fairness_spread)
                .build()
        })
        .collect();
    ci::to_json(&records)
}

fn main() {
    let spec = Spec::new(
        "asyncbench",
        "Tasks x worker-threads x lock sweep of the waker-parking async mutex",
    )
    .sweep()
    .value(
        "threads",
        "comma-separated worker-thread counts (default: the standard sweep)",
    )
    .value(
        "tasks",
        "comma-separated concurrent task counts (default 16,256; strictly positive)",
    )
    .flag("json", "emit normalized bench-trajectory JSON records");
    let args = spec.parse_env();

    let quick = args.has("quick");
    let default_locks = catalog::keys(View::Async).join(",");
    let lock_list = args.get_str(
        "lock",
        if quick {
            "async.hemlock,async.ticket"
        } else {
            &default_locks
        },
    );
    let entries = or_exit(catalog::resolve_list(View::Async, &lock_list));

    let mut sweep = Sweep::from_args(&args);
    sweep.threads = or_exit(args.get_list("threads", &sweep.threads));
    let tasks: Vec<usize> =
        or_exit(args.tasks()).unwrap_or_else(|| if quick { vec![16] } else { vec![16, 256] });
    let json = args.has("json");

    eprintln!(
        "# asyncbench: tasks {:?} x workers {:?}, {} run(s) x {:?} per point",
        tasks, sweep.threads, sweep.runs, sweep.duration
    );

    let mut rows: Vec<Row> = Vec::new();
    for entry in &entries {
        let visited = catalog::with_timed_lock_type(
            entry,
            AsyncSweep {
                sweep: &sweep,
                tasks: &tasks,
            },
        )
        .expect("async entries are trylock-capable");
        rows.extend(visited);
    }

    if json {
        print!("{}", to_json(&rows));
        return;
    }

    let mut t = Table::new(vec![
        "Lock",
        "Tasks",
        "Workers",
        "Mops/s",
        "Wakeup p99(us)",
        "Spread",
    ]);
    for r in &rows {
        t.row(vec![
            r.meta.name.to_string(),
            r.tasks.to_string(),
            r.workers.to_string(),
            fmt_f64(r.ops_per_sec / 1e6, 3),
            fmt_f64(r.wakeup.p99 as f64 / 1e3, 1),
            fmt_f64(r.fairness_spread, 2),
        ]);
    }
    print!("{}", if sweep.csv { t.to_csv() } else { t.render() });
}
