//! `shardkv`: throughput scaling of the sharded lock table.
//!
//! The experiment the paper's Table 1 implies but never runs: if a lock
//! costs one word, you can afford *many* — so stripe a keyed store over
//! `--shards` locks and watch aggregate throughput climb with `--threads`
//! while the lock-space bill (from [`LockMeta`]) stays tiny. Sweeps
//! shard counts × thread counts for every `--lock` from the catalog
//! (default: the shard-friendly compact subset), reporting ops/sec, the
//! contended-acquisition fraction from the per-shard census, and the
//! quiescent lock footprint.
//!
//! With `--tasks <n[,n…]>` the sweep runs in **async mode**: per point,
//! `n` tasks drive the table's `get_async`/`update_async` operations on a
//! `--threads`-worker `TaskPool` (the in-tree executor), so a busy shard
//! parks the task instead of spinning the worker — the oversubscribed
//! regime (`tasks ≫ threads`) a thread-per-waiter design cannot reach.
//! Async rows are keyed `shardkv.s<shards>.t<tasks>` and restricted to the
//! trylock-capable catalog subset (others are skipped with a note).
//!
//! `--combine on` switches either mode to the **flat-combined** issue
//! path: each thread (or task) submits its ops in 8-deep
//! [`ShardedTable::apply_batch`] groups, so threads colliding on a shard
//! have their posted ops serviced by the current lock holder instead of
//! queueing for the lock themselves. Combined records carry a
//! `.combined` bench-key suffix, letting `bench_ci` track combined vs
//! per-op throughput as separate trajectories.
//!
//! Output: aligned table (default), `--csv`, or `--json` (normalized
//! bench-trajectory records, the format `bench_ci` consumes). Banners and
//! progress go to stderr so stdout stays machine-readable.

use hemlock_bench::ci::{self, Record, RecordBuilder};
use hemlock_bench::{locks_from_args, Sweep};
use hemlock_core::meta::LockMeta;
use hemlock_core::pad::CachePadded;
use hemlock_core::raw::{RawLock, RawTryLock};
use hemlock_harness::executor::TaskPool;
use hemlock_harness::{fmt_f64, Mt19937, Spec, Table, Zipf};
use hemlock_locks::catalog::{self, CatalogEntry, LockVisitor, TimedLockVisitor};
use hemlock_obs::trace;
use hemlock_shard::{ShardedTable, TableOp};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Ops per `apply_batch` call in combined mode — the same depth as a
/// default `loadgen` pipeline burst, so the two benches measure the
/// combining layer at comparable batch granularity.
const BATCH: usize = 8;

#[derive(Clone, Copy)]
struct Workload {
    shards: usize,
    threads: usize,
    read_pct: u64,
    keys: u64,
    /// `Some(theta)`: Zipfian key skew (hot shards); `None`: uniform.
    theta: Option<f64>,
    /// Issue ops in [`BATCH`]-deep `apply_batch` groups (the
    /// flat-combined path) instead of one point op at a time.
    combine: bool,
    duration: Duration,
}

/// Per-worker key sampler: Zipfian (seeded Mersenne Twister through the
/// shared precomputed [`Zipf`]) or the original uniform splitmix draw.
struct KeyPick {
    zipf: Option<(Arc<Zipf>, Mt19937)>,
}

impl KeyPick {
    fn new(zipf: Option<&Arc<Zipf>>, worker: u64) -> Self {
        Self {
            zipf: zipf.map(|z| {
                let seed = 0x5EED_0000 ^ (worker as u32 + 1).wrapping_mul(0x9E37_79B9);
                (Arc::clone(z), Mt19937::new(seed))
            }),
        }
    }

    /// Next key: Zipf rank from the sampler, or `r % keys` (the original
    /// uniform draw, `r` being the worker's splitmix output).
    fn pick(&mut self, r: u64, keys: u64) -> u64 {
        match &mut self.zipf {
            Some((z, rng)) => z.sample(rng),
            None => r % keys,
        }
    }
}

/// One timed run: returns (ops/sec, contended fraction).
fn run_once<L: RawLock>(w: Workload) -> (f64, f64) {
    let table: ShardedTable<u64, u64, L> = ShardedTable::with_shards(w.shards);
    for k in 0..w.keys {
        table.insert(k, k);
    }
    table.reset_stats(); // census the measured interval only
    let zipf = w
        .theta
        .map(|t| Arc::new(Zipf::new(w.keys, t).expect("validated in main")));
    let stop = AtomicBool::new(false);
    let counters: Vec<CachePadded<AtomicU64>> = (0..w.threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, ops) in counters.iter().enumerate() {
            let table = &table;
            let stop = &stop;
            let mut pick = KeyPick::new(zipf.as_ref(), t as u64);
            s.spawn(move || {
                let mut state = 0x243F6A8885A308D3u64.wrapping_mul(t as u64 + 1);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let r = splitmix64(&mut state);
                    let key = pick.pick(r, w.keys);
                    let op = || {
                        if (r >> 32) % 100 < w.read_pct {
                            std::hint::black_box(table.get(&key));
                        } else {
                            table.insert(key, r);
                        }
                    };
                    // One relaxed load when tracing is off; a sampled op
                    // runs under its trace id so the guard-drop hold
                    // spans attribute to it, with a root span for the
                    // Perfetto view.
                    match trace::sample_request() {
                        0 => op(),
                        tid => trace::scoped(tid, || {
                            let t0 = trace::now_ns();
                            op();
                            trace::span_at(
                                tid,
                                "bench.op",
                                t0,
                                trace::now_ns(),
                                trace::SpanKind::Sync,
                            );
                        }),
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
    (total as f64 / elapsed, table.stats().contended_fraction())
}

/// Median-ops run of `runs` attempts (keeping that run's census).
fn run_median<L: RawLock>(w: Workload, runs: usize) -> (f64, f64) {
    let mut results: Vec<(f64, f64)> = (0..runs.max(1)).map(|_| run_once::<L>(w)).collect();
    results.sort_by(|a, b| a.0.total_cmp(&b.0));
    results[results.len() / 2]
}

/// Builds the next [`BATCH`]-deep op group into `ops` (reused across
/// iterations): the same read/write mix and key draw as the point loop,
/// just expressed as [`TableOp`]s.
fn fill_batch(ops: &mut Vec<TableOp<u64, u64>>, state: &mut u64, pick: &mut KeyPick, w: &Workload) {
    ops.clear();
    for _ in 0..BATCH {
        let r = splitmix64(state);
        let key = pick.pick(r, w.keys);
        ops.push(if (r >> 32) % 100 < w.read_pct {
            TableOp::Get(key)
        } else {
            TableOp::Put(key, r)
        });
    }
}

/// One timed **combined** run: the same thread/key/read-mix workload as
/// [`run_once`], but each thread issues its ops in [`BATCH`]-deep
/// [`ShardedTable::apply_batch`] groups — one shard acquisition per shard
/// the group touches, with threads that collide on a shard getting their
/// posted ops serviced by the current combiner instead of queueing for
/// the lock themselves. Needs the trylock-capable catalog subset (the
/// batch paths post and park on busy shards).
fn run_once_combined<L: RawTryLock + 'static>(w: Workload) -> (f64, f64) {
    let table: ShardedTable<u64, u64, L> = ShardedTable::with_shards(w.shards);
    for k in 0..w.keys {
        table.insert(k, k);
    }
    table.reset_stats();
    let zipf = w
        .theta
        .map(|t| Arc::new(Zipf::new(w.keys, t).expect("validated in main")));
    let stop = AtomicBool::new(false);
    let counters: Vec<CachePadded<AtomicU64>> = (0..w.threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for (t, ops_count) in counters.iter().enumerate() {
            let table = &table;
            let stop = &stop;
            let mut pick = KeyPick::new(zipf.as_ref(), t as u64);
            s.spawn(move || {
                let mut state = 0x243F6A8885A308D3u64.wrapping_mul(t as u64 + 1);
                let mut ops: Vec<TableOp<u64, u64>> = Vec::with_capacity(BATCH);
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    fill_batch(&mut ops, &mut state, &mut pick, &w);
                    match trace::sample_request() {
                        0 => {
                            std::hint::black_box(table.apply_batch(&ops));
                        }
                        tid => trace::scoped(tid, || {
                            let t0 = trace::now_ns();
                            std::hint::black_box(table.apply_batch(&ops));
                            trace::span_at(
                                tid,
                                "bench.batch",
                                t0,
                                trace::now_ns(),
                                trace::SpanKind::Sync,
                            );
                        }),
                    }
                    local += ops.len() as u64;
                }
                ops_count.store(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(w.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed().as_secs_f64();
    let total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    (total as f64 / elapsed, table.stats().contended_fraction())
}

/// Median-ops combined run of `runs` attempts.
fn run_median_combined<L: RawTryLock + 'static>(w: Workload, runs: usize) -> (f64, f64) {
    let mut results: Vec<(f64, f64)> = (0..runs.max(1))
        .map(|_| run_once_combined::<L>(w))
        .collect();
    results.sort_by(|a, b| a.0.total_cmp(&b.0));
    results[results.len() / 2]
}

/// One timed **async** run: `tasks` tasks on `threads` pool workers, each
/// looping keyed `get_async`/`update_async` against the shared table.
/// Returns (ops/sec, contended fraction).
fn run_once_async<L: RawTryLock + 'static>(w: Workload, tasks: usize) -> (f64, f64) {
    let table: Arc<ShardedTable<u64, u64, L>> = Arc::new(ShardedTable::with_shards(w.shards));
    for k in 0..w.keys {
        table.insert(k, k);
    }
    table.reset_stats();
    let zipf = w
        .theta
        .map(|t| Arc::new(Zipf::new(w.keys, t).expect("validated in main")));
    let stop = Arc::new(AtomicBool::new(false));
    let pool = TaskPool::new(w.threads);
    let start = Instant::now();
    let handles: Vec<_> = (0..tasks)
        .map(|t| {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let mut pick = KeyPick::new(zipf.as_ref(), t as u64);
            pool.spawn(async move {
                let mut state = 0x243F6A8885A308D3u64.wrapping_mul(t as u64 + 1);
                let mut local = 0u64;
                if w.combine {
                    // Combined async mode: each task awaits one
                    // `apply_batch_async` per BATCH ops, parking on the
                    // posted records' completion instead of per shard.
                    let mut ops: Vec<TableOp<u64, u64>> = Vec::with_capacity(BATCH);
                    while !stop.load(Ordering::Relaxed) {
                        fill_batch(&mut ops, &mut state, &mut pick, &w);
                        // `traced` is a plain passthrough for id 0.
                        let tid = trace::sample_request();
                        std::hint::black_box(
                            trace::traced(tid, table.apply_batch_async(&ops)).await,
                        );
                        local += ops.len() as u64;
                    }
                } else {
                    while !stop.load(Ordering::Relaxed) {
                        let r = splitmix64(&mut state);
                        let key = pick.pick(r, w.keys);
                        let tid = trace::sample_request();
                        if (r >> 32) % 100 < w.read_pct {
                            std::hint::black_box(trace::traced(tid, table.get_async(&key)).await);
                        } else {
                            trace::traced(tid, table.update_async(key, |slot| *slot = Some(r)))
                                .await;
                        }
                        local += 1;
                    }
                }
                local
            })
        })
        .collect();
    std::thread::sleep(w.duration);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join()).sum();
    let elapsed = start.elapsed().as_secs_f64();
    (total as f64 / elapsed, table.stats().contended_fraction())
}

/// Median-ops async run of `runs` attempts.
fn run_median_async<L: RawTryLock + 'static>(w: Workload, tasks: usize, runs: usize) -> (f64, f64) {
    let mut results: Vec<(f64, f64)> = (0..runs.max(1))
        .map(|_| run_once_async::<L>(w, tasks))
        .collect();
    results.sort_by(|a, b| a.0.total_cmp(&b.0));
    results[results.len() / 2]
}

struct Row {
    meta: LockMeta,
    shards: usize,
    threads: usize,
    /// `Some(n)`: async mode with `n` tasks; `None`: sync thread mode.
    tasks: Option<usize>,
    /// Measured through the flat-combined batch path (`--combine on`).
    combined: bool,
    ops_per_sec: f64,
    contended: f64,
}

struct ShardSweep<'a> {
    sweep: &'a Sweep,
    shards: usize,
    read_pct: u64,
    keys: u64,
    theta: Option<f64>,
}

impl LockVisitor for ShardSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                let (ops_per_sec, contended) = run_median::<L>(
                    Workload {
                        shards: self.shards,
                        threads,
                        read_pct: self.read_pct,
                        keys: self.keys,
                        theta: self.theta,
                        combine: false,
                        duration: self.sweep.duration,
                    },
                    self.sweep.runs,
                );
                eprintln!(
                    "# shardkv {} shards={} threads={}: {:.2} Mops/s ({:.1}% contended)",
                    entry.meta.name,
                    self.shards,
                    threads,
                    ops_per_sec / 1e6,
                    100.0 * contended
                );
                Row {
                    meta: entry.meta,
                    shards: self.shards,
                    threads,
                    tasks: None,
                    combined: false,
                    ops_per_sec,
                    contended,
                }
            })
            .collect()
    }
}

/// The sync sweep through the **combined** issue path: dispatched via the
/// trylock-capable visitor because `apply_batch` posts and parks on busy
/// shards.
struct CombinedShardSweep<'a> {
    sweep: &'a Sweep,
    shards: usize,
    read_pct: u64,
    keys: u64,
    theta: Option<f64>,
}

impl TimedLockVisitor for CombinedShardSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                let (ops_per_sec, contended) = run_median_combined::<L>(
                    Workload {
                        shards: self.shards,
                        threads,
                        read_pct: self.read_pct,
                        keys: self.keys,
                        theta: self.theta,
                        combine: true,
                        duration: self.sweep.duration,
                    },
                    self.sweep.runs,
                );
                eprintln!(
                    "# shardkv {} shards={} threads={} combined: {:.2} Mops/s ({:.1}% contended)",
                    entry.meta.name,
                    self.shards,
                    threads,
                    ops_per_sec / 1e6,
                    100.0 * contended
                );
                Row {
                    meta: entry.meta,
                    shards: self.shards,
                    threads,
                    tasks: None,
                    combined: true,
                    ops_per_sec,
                    contended,
                }
            })
            .collect()
    }
}

struct AsyncShardSweep<'a> {
    sweep: &'a Sweep,
    shards: usize,
    read_pct: u64,
    keys: u64,
    theta: Option<f64>,
    combine: bool,
    tasks: usize,
}

impl TimedLockVisitor for AsyncShardSweep<'_> {
    type Output = Vec<Row>;
    fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Vec<Row> {
        self.sweep
            .threads
            .iter()
            .map(|&threads| {
                let (ops_per_sec, contended) = run_median_async::<L>(
                    Workload {
                        shards: self.shards,
                        threads,
                        read_pct: self.read_pct,
                        keys: self.keys,
                        theta: self.theta,
                        combine: self.combine,
                        duration: self.sweep.duration,
                    },
                    self.tasks,
                    self.sweep.runs,
                );
                eprintln!(
                    "# shardkv {} shards={} tasks={} workers={}{}: {:.2} Mops/s ({:.1}% contended)",
                    entry.meta.name,
                    self.shards,
                    self.tasks,
                    threads,
                    if self.combine { " combined" } else { "" },
                    ops_per_sec / 1e6,
                    100.0 * contended
                );
                Row {
                    meta: entry.meta,
                    shards: self.shards,
                    threads,
                    tasks: Some(self.tasks),
                    combined: self.combine,
                    ops_per_sec,
                    contended,
                }
            })
            .collect()
    }
}

fn main() {
    let spec = Spec::new("shardkv", "Sharded lock-table scaling (hemlock-shard)")
        .sweep()
        .value("shards", "comma-separated shard counts to sweep")
        .value(
            "threads",
            "comma-separated thread counts (default: the standard sweep)",
        )
        .value(
            "read-pct",
            "percentage of operations that are reads (default 90)",
        )
        .value("keys", "distinct keys in the working set")
        .value(
            "zipf",
            "Zipfian key-skew theta in [0,1): hot keys pile onto hot shards \
             (default: uniform keys)",
        )
        .value(
            "tasks",
            "async mode: comma-separated task counts per point, driven \
             through get_async/update_async on a --threads-worker pool",
        )
        .value(
            "combine",
            "on|off (default off): issue ops in 8-deep apply_batch groups \
             through the flat-combining layer; records gain a `.combined` \
             bench-key suffix (needs trylock-capable locks)",
        )
        .value(
            "obs",
            "on|off (default on): observability collection; `off` measures \
             the disabled fast path (the CI enabled-vs-disabled gate runs \
             both)",
        )
        .value(
            "trace",
            "sample 1 in N ops/batches for causal tracing (default 0 = \
             off); spans from the most recent sweep points are exported \
             at exit",
        )
        .value(
            "trace-out",
            "path for the Chrome-trace JSON document (default \
             shardkv_trace.json; only written when tracing is on)",
        )
        .flag("json", "emit normalized bench-trajectory JSON records");
    let args = spec.parse_env();
    match args.get_str("obs", "on").as_str() {
        "on" => hemlock_obs::init(),
        "off" => hemlock_obs::set_enabled(false),
        other => {
            eprintln!("error: --obs must be `on` or `off`, got {other:?}");
            std::process::exit(2);
        }
    }

    let trace_every: u32 = args.get("trace", 0u32);
    let trace_out = args.get_str("trace-out", "shardkv_trace.json");
    if trace_every > 0 {
        trace::set_sampling(trace_every, 0x5EED);
    }

    let default_locks: String = catalog::shard_friendly()
        .iter()
        .map(|e| e.key)
        .collect::<Vec<_>>()
        .join(",");
    let locks = locks_from_args(&args, &default_locks);
    let mut sweep = Sweep::from_args(&args);
    let quick = args.has("quick");
    let or_exit = |r: Result<Vec<usize>, String>| {
        r.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    };
    let shard_counts = or_exit(args.get_list(
        "shards",
        if quick {
            &[4, 64][..]
        } else {
            &[1, 4, 16, 64, 256][..]
        },
    ));
    sweep.threads = or_exit(args.get_list("threads", &sweep.threads));
    let read_pct: u64 = args.get("read-pct", 90);
    if read_pct > 100 {
        eprintln!("error: --read-pct must be 0..=100, got {read_pct}");
        std::process::exit(2);
    }
    let keys: u64 = args.get("keys", if quick { 4_096 } else { 65_536 });
    let theta: Option<f64> = args.get_parsed("zipf").unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(t) = theta {
        // Validate once, with the sampler's CLI-shaped error.
        if let Err(e) = Zipf::new(keys.max(1), t) {
            eprintln!("error: --zipf: {e}");
            std::process::exit(2);
        }
    }
    let tasks_mode: Option<Vec<usize>> = args.tasks().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let combine = match args.get_str("combine", "off").as_str() {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("error: --combine must be `on` or `off`, got {other:?}");
            std::process::exit(2);
        }
    };
    let json = args.has("json");

    eprintln!(
        "# shardkv: {} key(s){}, {read_pct}% reads{}, {} run(s) x {:?} per point",
        keys,
        theta.map_or(String::new(), |t| format!(" (zipf {t})")),
        if combine {
            format!(", combined (batch {BATCH})")
        } else {
            String::new()
        },
        sweep.runs,
        sweep.duration
    );

    let mut rows: Vec<Row> = Vec::new();
    for entry in &locks {
        for &shards in &shard_counts {
            match &tasks_mode {
                None if !combine => {
                    let visited = catalog::with_lock_type(
                        entry,
                        ShardSweep {
                            sweep: &sweep,
                            shards,
                            read_pct,
                            keys,
                            theta,
                        },
                    );
                    rows.extend(visited);
                }
                None => {
                    match catalog::with_timed_lock_type(
                        entry,
                        CombinedShardSweep {
                            sweep: &sweep,
                            shards,
                            read_pct,
                            keys,
                            theta,
                        },
                    ) {
                        Some(visited) => rows.extend(visited),
                        None => eprintln!(
                            "# shardkv: skipping {} in combined mode (no trylock path \
                             — apply_batch posts and parks on busy shards)",
                            entry.key
                        ),
                    }
                }
                Some(task_counts) => {
                    for &tasks in task_counts {
                        match catalog::with_timed_lock_type(
                            entry,
                            AsyncShardSweep {
                                sweep: &sweep,
                                shards,
                                read_pct,
                                keys,
                                theta,
                                combine,
                                tasks,
                            },
                        ) {
                            Some(visited) => rows.extend(visited),
                            None => {
                                eprintln!(
                                    "# shardkv: skipping {} in async mode (no trylock path \
                                     — its shards cannot back get_async/update_async)",
                                    entry.key
                                );
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    if trace_every > 0 {
        let doc = trace::export_chrome_json();
        match std::fs::write(&trace_out, &doc) {
            Ok(()) => {
                eprintln!("# shardkv: wrote {trace_out} (open in Perfetto or chrome://tracing)")
            }
            Err(e) => eprintln!("# shardkv: cannot write {trace_out}: {e}"),
        }
    }

    if json {
        let records: Vec<Record> = rows
            .iter()
            .map(|r| {
                let bench = match r.tasks {
                    Some(t) => format!("shardkv.s{}.t{}", r.shards, t),
                    None => format!("shardkv.s{}", r.shards),
                };
                RecordBuilder::new(bench, r.meta.name)
                    .combined(r.combined)
                    .threads(r.threads)
                    .ops_per_sec(r.ops_per_sec)
                    .space_bytes(r.meta.footprint_bytes(r.shards, r.threads) as u64)
                    .extra("contended", r.contended)
                    .build()
            })
            .collect();
        print!("{}", ci::to_json(&records));
        return;
    }

    let mut t = Table::new(vec![
        "Lock",
        "Shards",
        "Threads",
        "Tasks",
        "Mode",
        "Mops/s",
        "Contended%",
        "LockSpace(B)",
    ]);
    for r in &rows {
        t.row(vec![
            r.meta.name.to_string(),
            r.shards.to_string(),
            r.threads.to_string(),
            r.tasks.map_or_else(|| "-".to_string(), |t| t.to_string()),
            if r.combined { "combined" } else { "per-op" }.to_string(),
            fmt_f64(r.ops_per_sec / 1e6, 3),
            fmt_f64(100.0 * r.contended, 1),
            r.meta.footprint_bytes(r.shards, r.threads).to_string(),
        ]);
    }
    print!("{}", if sweep.csv { t.to_csv() } else { t.render() });
}
