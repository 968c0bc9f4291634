//! `rwbench`: read-mostly scaling of shared-mode locking.
//!
//! The experiment the RW subsystem exists for: sweep **read fraction ×
//! thread count** over one maximally contended lock and compare the `rw.*`
//! twins (readers admitted concurrently) against the exclusive locks
//! (readers serialize behind the single holder). Lock names resolve in
//! the catalog's `rw.*` view, then its exclusive one — `--lock
//! hemlock,rw.hemlock` runs the same measurement loop through
//! `catalog::with_lock_type` for both, so the only difference between a
//! pair of rows is whether `read_lock` shares.
//!
//! Each operation takes the lock (read mode for reads, write mode for
//! writes) around a touch of one slot in a shared array. At high read
//! fractions an RW lock should scale with threads while the exclusive
//! baseline stays flat: the acceptance bar for this subsystem is
//! `rw.hemlock ≥ 2× hemlock` at 95% reads on ≥ 4 threads.
//!
//! Output: aligned table (default), `--csv`, or `--json` (normalized
//! bench-trajectory records; `bench_ci --rwbench` consumes them).
//! Banners and progress go to stderr so stdout stays machine-readable.

use hemlock_bench::ci::{self, Record, RecordBuilder};
use hemlock_bench::Sweep;
use hemlock_core::meta::LockMeta;
use hemlock_core::pad::CachePadded;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_harness::{fmt_f64, Spec, Table};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor, TimedLockVisitor, View};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[derive(Clone, Copy)]
struct Workload {
    threads: usize,
    read_pct: u64,
    keys: u64,
    duration: Duration,
}

/// One timed run over a single shared lock: ops/sec across all threads.
fn run_once<L: RawLock>(w: Workload) -> f64 {
    let lock = L::default();
    let slots: Vec<CachePadded<AtomicU64>> = (0..w.keys)
        .map(|i| CachePadded::new(AtomicU64::new(i)))
        .collect();
    let stop = AtomicBool::new(false);
    let counters: Vec<CachePadded<AtomicU64>> = (0..w.threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, ops) in counters.iter().enumerate() {
            let lock = &lock;
            let slots = &slots;
            let stop = &stop;
            s.spawn(move || {
                let mut state = 0x243F6A8885A308D3u64.wrapping_mul(t as u64 + 1);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = splitmix64(&mut state);
                    let key = (r % w.keys) as usize;
                    if (r >> 32) % 100 < w.read_pct {
                        lock.read_lock();
                        std::hint::black_box(slots[key].load(Ordering::Relaxed));
                        // Safety: read-acquired just above on this thread.
                        unsafe { lock.read_unlock() };
                    } else {
                        lock.lock();
                        slots[key].store(r, Ordering::Relaxed);
                        // Safety: acquired just above on this thread.
                        unsafe { lock.unlock() };
                    }
                    local += 1;
                }
                ops.store(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(w.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    total as f64 / elapsed
}

fn run_median<L: RawLock>(w: Workload, runs: usize) -> f64 {
    let mut results: Vec<f64> = (0..runs.max(1)).map(|_| run_once::<L>(w)).collect();
    results.sort_by(f64::total_cmp);
    results[results.len() / 2]
}

/// One timed run where **every** acquisition carries the `--timeout`
/// budget (`try_read_lock_for` / `try_lock_for`): returns completed
/// ops/sec and the abandon rate. Only abortable locks reach this loop.
fn run_once_timed<L: RawTryLock>(w: Workload, timeout: Duration) -> (f64, f64) {
    let lock = L::default();
    let slots: Vec<CachePadded<AtomicU64>> = (0..w.keys)
        .map(|i| CachePadded::new(AtomicU64::new(i)))
        .collect();
    let stop = AtomicBool::new(false);
    let counters: Vec<CachePadded<[AtomicU64; 2]>> = (0..w.threads)
        .map(|_| CachePadded::new([AtomicU64::new(0), AtomicU64::new(0)]))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, counts) in counters.iter().enumerate() {
            let lock = &lock;
            let slots = &slots;
            let stop = &stop;
            s.spawn(move || {
                let mut state = 0x243F6A8885A308D3u64.wrapping_mul(t as u64 + 1);
                let (mut done, mut abandoned) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    let r = splitmix64(&mut state);
                    let key = (r % w.keys) as usize;
                    if (r >> 32) % 100 < w.read_pct {
                        if lock.try_read_lock_for(timeout) {
                            std::hint::black_box(slots[key].load(Ordering::Relaxed));
                            // Safety: timed read acquisition succeeded.
                            unsafe { lock.read_unlock() };
                            done += 1;
                        } else {
                            abandoned += 1;
                        }
                    } else if lock.try_lock_for(timeout) {
                        slots[key].store(r, Ordering::Relaxed);
                        // Safety: timed acquisition conferred ownership.
                        unsafe { lock.unlock() };
                        done += 1;
                    } else {
                        abandoned += 1;
                    }
                }
                counts[0].store(done, Ordering::Relaxed);
                counts[1].store(abandoned, Ordering::Relaxed);
            });
        }
        std::thread::sleep(w.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed().as_secs_f64();
    let done: u64 = counters.iter().map(|c| c[0].load(Ordering::Relaxed)).sum();
    let abandoned: u64 = counters.iter().map(|c| c[1].load(Ordering::Relaxed)).sum();
    let attempts = done + abandoned;
    let abandon_rate = if attempts == 0 {
        0.0
    } else {
        abandoned as f64 / attempts as f64
    };
    (done as f64 / elapsed, abandon_rate)
}

struct Row {
    meta: LockMeta,
    read_pct: u64,
    threads: usize,
    ops_per_sec: f64,
    /// `Some` when `--timeout` put the run in timed-acquisition mode.
    abandon_rate: Option<f64>,
}

struct RwSweep<'a> {
    sweep: &'a Sweep,
    read_pct: u64,
    keys: u64,
}

impl LockVisitor for RwSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        let meta = entry.meta;
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                let ops_per_sec = run_median::<L>(
                    Workload {
                        threads,
                        read_pct: self.read_pct,
                        keys: self.keys,
                        duration: self.sweep.duration,
                    },
                    self.sweep.runs,
                );
                eprintln!(
                    "# rwbench {} reads={}% threads={}: {:.2} Mops/s{}",
                    meta.name,
                    self.read_pct,
                    threads,
                    ops_per_sec / 1e6,
                    if meta.rw { "" } else { " (exclusive reads)" }
                );
                Row {
                    meta,
                    read_pct: self.read_pct,
                    threads,
                    ops_per_sec,
                    abandon_rate: None,
                }
            })
            .collect()
    }
}

/// The `--timeout` counterpart of [`RwSweep`]: dispatched through
/// `with_timed_lock_type`, so the monomorphized loop gets
/// `try_lock_for`/`try_read_lock_for` at zero dispatch cost.
struct TimedRwSweep<'a> {
    sweep: &'a Sweep,
    read_pct: u64,
    keys: u64,
    timeout: Duration,
}

impl TimedLockVisitor for TimedRwSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        let meta = entry.meta;
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                let mut results: Vec<(f64, f64)> = (0..self.sweep.runs.max(1))
                    .map(|_| {
                        run_once_timed::<L>(
                            Workload {
                                threads,
                                read_pct: self.read_pct,
                                keys: self.keys,
                                duration: self.sweep.duration,
                            },
                            self.timeout,
                        )
                    })
                    .collect();
                results.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (ops_per_sec, abandon_rate) = results[results.len() / 2];
                eprintln!(
                    "# rwbench {} reads={}% threads={} timeout={:?}: {:.2} Mops/s, abandon {:.2}%",
                    meta.name,
                    self.read_pct,
                    threads,
                    self.timeout,
                    ops_per_sec / 1e6,
                    abandon_rate * 100.0,
                );
                Row {
                    meta,
                    read_pct: self.read_pct,
                    threads,
                    ops_per_sec,
                    abandon_rate: Some(abandon_rate),
                }
            })
            .collect()
    }
}

fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let spec = Spec::new(
        "rwbench",
        "Read-fraction x thread sweep: rw.* shared-mode locks vs exclusive baselines",
    )
    .sweep()
    .value(
        "threads",
        "comma-separated thread counts (default: the standard sweep)",
    )
    .value(
        "read-pct",
        "comma-separated read percentages to sweep (default 50,95,100; quick: 95)",
    )
    .value(
        "keys",
        "slots in the shared array the critical sections touch",
    )
    .value(
        "timeout",
        "acquisition budget in ms: every lock op becomes try_lock_for / try_read_lock_for \
         (abortable locks only; abandon rate is reported per row)",
    )
    .flag("json", "emit normalized bench-trajectory JSON records");
    let args = spec.parse_env();

    let quick = args.has("quick");
    let lock_list = args.get_str("lock", "hemlock,rw.hemlock,mcs,rw.mcs");
    // `rwbench` takes the `rw.*` twins next to the exclusive names.
    let known = || {
        [View::Lock, View::Rw]
            .map(catalog::keys)
            .concat()
            .join(", ")
    };
    // Validate the whole selection before any measurement runs, so a typo
    // at the end of the list fails fast instead of after minutes of sweep.
    let entries: Vec<&'static CatalogEntry> = lock_list
        .split(',')
        .map(str::trim)
        .map(|name| {
            if name.is_empty() {
                or_exit::<()>(Err(format!(
                    "empty lock name in {lock_list:?}; known locks: {}",
                    known()
                )));
            }
            catalog::find(View::Rw, name)
                .or_else(|| catalog::find(View::Lock, name))
                .unwrap_or_else(|| {
                    or_exit(Err(format!(
                        "unknown lock {name:?}; known locks: {}",
                        known()
                    )))
                })
        })
        .collect();
    let mut sweep = Sweep::from_args(&args);
    sweep.threads = or_exit(args.get_list("threads", &sweep.threads));
    let read_pcts: Vec<u64> = or_exit(args.get_list(
        "read-pct",
        if quick { &[95][..] } else { &[50, 95, 100][..] },
    ));
    if let Some(bad) = read_pcts.iter().find(|&&p| p > 100) {
        or_exit::<()>(Err(format!("--read-pct must be 0..=100, got {bad}")));
    }
    let keys: u64 = args.get("keys", 1_024);
    if keys == 0 {
        or_exit::<()>(Err("--keys must be at least 1".to_string()));
    }
    let timeout = or_exit(args.timeout());
    if timeout.is_some() {
        // Timed mode needs an abortable path on every selected lock —
        // refuse up front rather than silently measuring something else.
        for entry in &entries {
            if !entry.meta.abortable {
                or_exit::<()>(Err(format!(
                    "--timeout requires abortable locks, but {:?} reports abortable: false \
                     (its waiters cannot withdraw)",
                    entry.key
                )));
            }
        }
    }
    let json = args.has("json");

    eprintln!(
        "# rwbench: {} slot(s), read fractions {:?}, {} run(s) x {:?} per point",
        keys, read_pcts, sweep.runs, sweep.duration
    );

    let mut rows: Vec<Row> = Vec::new();
    for &entry in &entries {
        for &read_pct in &read_pcts {
            let visited = match timeout {
                Some(budget) => catalog::with_timed_lock_type(
                    entry,
                    TimedRwSweep {
                        sweep: &sweep,
                        read_pct,
                        keys,
                        timeout: budget,
                    },
                )
                .expect("abortable entries are trylock-capable"),
                None => catalog::with_lock_type(
                    entry,
                    RwSweep {
                        sweep: &sweep,
                        read_pct,
                        keys,
                    },
                ),
            };
            rows.extend(visited);
        }
    }

    if json {
        // f64 Display is shortest-roundtrip, so distinct timeouts always
        // produce distinct bench keys (no rounding collisions in the
        // bench_ci (bench, lock, threads) matching).
        let suffix = timeout
            .map(|t| format!(".t{}", t.as_secs_f64() * 1e3))
            .unwrap_or_default();
        let records: Vec<Record> = rows
            .iter()
            .map(|r| {
                RecordBuilder::new(format!("rwbench.r{}{}", r.read_pct, suffix), r.meta.name)
                    .threads(r.threads)
                    .ops_per_sec(r.ops_per_sec)
                    .space_bytes(r.meta.footprint_bytes(1, r.threads) as u64)
                    .build()
            })
            .collect();
        print!("{}", ci::to_json(&records));
        return;
    }

    let mut t = Table::new(vec![
        "Lock",
        "RW",
        "Read%",
        "Threads",
        "Mops/s",
        "Abandon%",
        "LockSpace(B)",
    ]);
    for r in &rows {
        t.row(vec![
            r.meta.name.to_string(),
            if r.meta.rw { "yes" } else { "no" }.to_string(),
            r.read_pct.to_string(),
            r.threads.to_string(),
            fmt_f64(r.ops_per_sec / 1e6, 3),
            r.abandon_rate
                .map(|a| fmt_f64(a * 100.0, 2))
                .unwrap_or_else(|| "-".to_string()),
            r.meta.footprint_bytes(1, r.threads).to_string(),
        ]);
    }
    print!("{}", if sweep.csv { t.to_csv() } else { t.render() });
}
