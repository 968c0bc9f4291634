//! `timeoutbench`: abortable-acquisition behaviour under contention.
//!
//! The experiment the timed API exists for: sweep **hold-time × timeout ×
//! thread count** over one contended lock, where every acquisition is a
//! `try_lock_for(timeout)`. Per configuration it reports
//!
//! - **throughput** — successful acquisitions per second across threads;
//! - **abandon rate** — the fraction of attempts that timed out (the
//!   quantity a tail-latency-sensitive service actually budgets for);
//! - **p99 acquire latency** — over *all* attempts, successful or
//!   abandoned, so a timeout shows up as its full cost, not as a dropped
//!   sample.
//!
//! Locks resolve against the catalog's exclusive view restricted to its
//! **abortable** subset (`LockMeta::abortable`): non-abortable entries
//! (CLH, Anderson) are *skipped with a note* rather than faked, since a
//! waiter that cannot withdraw has no honest timed path. The measurement
//! loop is monomorphized per algorithm through
//! `catalog::with_timed_lock_type`, so runtime selection costs nothing.
//!
//! Output: aligned table (default), `--csv`, or `--json` (normalized
//! bench-trajectory records with `abandon_rate` / `p99_acquire_ns` extras;
//! `bench_ci --timeoutbench` consumes them — unknown keys are ignored by
//! its parser, so the gate sees only the throughput). Banners and progress
//! go to stderr so stdout stays machine-readable.

use hemlock_bench::Sweep;
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::RawTryLock;
use hemlock_harness::{fmt_f64, Histogram, Spec, Table};
use hemlock_locks::catalog::{self, CatalogEntry, TimedLockVisitor, View};
use hemlock_obs::Pcts;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex as StdMutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Workload {
    threads: usize,
    hold: Duration,
    timeout: Duration,
    duration: Duration,
}

struct RunStats {
    acquired: u64,
    abandoned: u64,
    latency: Histogram,
}

/// One timed run over a single shared lock: every acquisition is a
/// `try_lock_for(timeout)`; successes hold the lock for `hold` (busy) and
/// release; failures count as abandons. Latency is attempt start → return.
fn run_once<L: RawTryLock>(w: Workload) -> RunStats {
    let lock = L::default();
    let stop = AtomicBool::new(false);
    let merged: StdMutex<RunStats> = StdMutex::new(RunStats {
        acquired: 0,
        abandoned: 0,
        latency: Histogram::new(),
    });
    std::thread::scope(|s| {
        for _ in 0..w.threads {
            let lock = &lock;
            let stop = &stop;
            let merged = &merged;
            s.spawn(move || {
                let mut acquired = 0u64;
                let mut abandoned = 0u64;
                let mut latency = Histogram::new();
                while !stop.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    if lock.try_lock_for(w.timeout) {
                        latency.record(t0.elapsed().as_nanos() as u64);
                        // Busy-hold for the configured critical-section
                        // length (sleep granularity is far too coarse).
                        let until = Instant::now() + w.hold;
                        while Instant::now() < until {
                            std::hint::spin_loop();
                        }
                        // Safety: the timed acquisition conferred ownership.
                        unsafe { lock.unlock() };
                        acquired += 1;
                    } else {
                        latency.record(t0.elapsed().as_nanos() as u64);
                        abandoned += 1;
                    }
                }
                let mut m = merged.lock().expect("stats mutex");
                m.acquired += acquired;
                m.abandoned += abandoned;
                m.latency.merge(&latency);
            });
        }
        std::thread::sleep(w.duration);
        stop.store(true, Ordering::Relaxed);
    });
    merged.into_inner().expect("stats mutex")
}

struct Row {
    meta: LockMeta,
    threads: usize,
    hold_us: f64,
    timeout_ms: f64,
    ops_per_sec: f64,
    abandon_rate: f64,
    acquire: Pcts,
}

struct TimeoutSweep<'a> {
    sweep: &'a Sweep,
    /// `(as-given CLI value, parsed duration)` pairs: the raw value goes
    /// into bench keys verbatim, so float round-tripping through
    /// `Duration` can never collide two configurations' keys.
    holds: &'a [(f64, Duration)],
    timeouts: &'a [(f64, Duration)],
}

impl TimedLockVisitor for TimeoutSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        let mut rows = Vec::new();
        for &(hold_us, hold) in self.holds {
            for &(timeout_ms, timeout) in self.timeouts {
                for &threads in &self.sweep.threads {
                    // Median-of-N on throughput; the reported distribution
                    // comes from the median run's histogram.
                    let mut runs: Vec<RunStats> = (0..self.sweep.runs.max(1))
                        .map(|_| {
                            run_once::<L>(Workload {
                                threads,
                                hold,
                                timeout,
                                duration: self.sweep.duration,
                            })
                        })
                        .collect();
                    runs.sort_by_key(|r| r.acquired);
                    let median = runs.remove(runs.len() / 2);
                    let attempts = median.acquired + median.abandoned;
                    let ops_per_sec = median.acquired as f64 / self.sweep.duration.as_secs_f64();
                    let abandon_rate = if attempts == 0 {
                        0.0
                    } else {
                        median.abandoned as f64 / attempts as f64
                    };
                    // One pcts() call instead of per-bin quantile
                    // picking: the shared summary struct every bench
                    // reports.
                    let acquire = median.latency.pcts();
                    eprintln!(
                        "# timeoutbench {} hold={}us timeout={}ms threads={}: {:.2} Mops/s, abandon {:.1}%, p99 {:.1}us",
                        entry.meta.name,
                        hold_us,
                        timeout_ms,
                        threads,
                        ops_per_sec / 1e6,
                        abandon_rate * 100.0,
                        acquire.p99 as f64 / 1e3,
                    );
                    rows.push(Row {
                        meta: entry.meta,
                        threads,
                        hold_us,
                        timeout_ms,
                        ops_per_sec,
                        abandon_rate,
                        acquire,
                    });
                }
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

/// Bench-trajectory records through the shared
/// [`RecordBuilder`](hemlock_bench::ci::RecordBuilder):
/// `abandon_rate` / `p99_acquire_ns` ride as schema-invisible extras.
fn to_json(rows: &[Row]) -> String {
    let records: Vec<hemlock_bench::ci::Record> = rows
        .iter()
        .map(|r| {
            hemlock_bench::ci::RecordBuilder::new(
                format!("timeoutbench.h{}t{}", r.hold_us, r.timeout_ms),
                r.meta.name,
            )
            .threads(r.threads)
            .ops_per_sec(r.ops_per_sec)
            .extra("abandon_rate", r.abandon_rate)
            .extra("p50_acquire_ns", r.acquire.p50 as f64)
            .extra("p99_acquire_ns", r.acquire.p99 as f64)
            .extra("p999_acquire_ns", r.acquire.p999 as f64)
            .build()
        })
        .collect();
    hemlock_bench::ci::to_json(&records)
}

fn main() {
    let spec = Spec::new(
        "timeoutbench",
        "Hold-time x timeout x thread sweep of abortable acquisition (abandon rate, p99 latency)",
    )
    .sweep()
    .value(
        "threads",
        "comma-separated thread counts (default: the standard sweep)",
    )
    .value(
        "hold",
        "comma-separated critical-section lengths in microseconds (default 0,5)",
    )
    .value(
        "timeout",
        "comma-separated acquisition budgets in milliseconds (default 0.1,1)",
    )
    .flag("json", "emit normalized bench-trajectory JSON records");
    let args = spec.parse_env();

    let quick = args.has("quick");
    // Default: the abortable catalog subset; explicit --lock names must be
    // abortable or the run refuses (an honest Unsupported beats a silently
    // skipped request).
    let default_locks = catalog::abortable()
        .iter()
        .map(|e| e.key)
        .collect::<Vec<_>>()
        .join(",");
    let lock_list = args.get_str(
        "lock",
        if quick {
            "hemlock,tas,ticket"
        } else {
            &default_locks
        },
    );
    let entries = or_exit(catalog::resolve_list(View::Lock, &lock_list));
    let mut selected: Vec<&'static CatalogEntry> = Vec::new();
    for entry in entries {
        if entry.meta.abortable {
            selected.push(entry);
        } else {
            eprintln!(
                "# timeoutbench: skipping {} (abortable: false — its waiters cannot withdraw)",
                entry.key
            );
        }
    }
    if selected.is_empty() {
        or_exit::<()>(Err(format!(
            "no abortable locks selected; abortable keys: {}",
            catalog::abortable()
                .iter()
                .map(|e| e.key)
                .collect::<Vec<_>>()
                .join(", ")
        )));
    }

    let mut sweep = Sweep::from_args(&args);
    sweep.threads = or_exit(args.get_list("threads", &sweep.threads));
    let hold_us: Vec<f64> =
        or_exit(args.get_list("hold", if quick { &[1.0][..] } else { &[0.0, 5.0][..] }));
    if let Some(bad) = hold_us.iter().find(|h| !h.is_finite() || **h < 0.0) {
        or_exit::<()>(Err(format!(
            "--hold must be non-negative microseconds, got {bad}"
        )));
    }
    let timeout_ms: Vec<f64> =
        or_exit(args.get_list("timeout", if quick { &[0.5][..] } else { &[0.1, 1.0][..] }));
    if let Some(bad) = timeout_ms.iter().find(|t| !t.is_finite() || **t <= 0.0) {
        or_exit::<()>(Err(format!(
            "--timeout must be positive milliseconds, got {bad}"
        )));
    }
    let holds: Vec<(f64, Duration)> = hold_us
        .iter()
        .map(|&us| (us, Duration::from_secs_f64(us / 1e6)))
        .collect();
    let timeouts: Vec<(f64, Duration)> = timeout_ms
        .iter()
        .map(|&ms| (ms, Duration::from_secs_f64(ms / 1e3)))
        .collect();
    let json = args.has("json");

    eprintln!(
        "# timeoutbench: holds {:?}us, timeouts {:?}ms, {} run(s) x {:?} per point",
        hold_us, timeout_ms, sweep.runs, sweep.duration
    );

    let mut rows: Vec<Row> = Vec::new();
    for entry in &selected {
        let visited = catalog::with_timed_lock_type(
            entry,
            TimeoutSweep {
                sweep: &sweep,
                holds: &holds,
                timeouts: &timeouts,
            },
        )
        .expect("abortable entries always dispatch through the timed table");
        rows.extend(visited);
    }

    if json {
        print!("{}", to_json(&rows));
        return;
    }

    let mut t = Table::new(vec![
        "Lock",
        "Hold(us)",
        "Timeout(ms)",
        "Threads",
        "Mops/s",
        "Abandon%",
        "p99(us)",
    ]);
    for r in &rows {
        t.row(vec![
            r.meta.name.to_string(),
            fmt_f64(r.hold_us, 1),
            fmt_f64(r.timeout_ms, 2),
            r.threads.to_string(),
            fmt_f64(r.ops_per_sec / 1e6, 3),
            fmt_f64(r.abandon_rate * 100.0, 2),
            fmt_f64(r.acquire.p99 as f64 / 1e3, 1),
        ]);
    }
    print!("{}", if sweep.csv { t.to_csv() } else { t.render() });
}
