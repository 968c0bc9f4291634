//! `loadgen`: pipelined TCP load generator for the networked minikv
//! front-end (`hemlock-net`).
//!
//! The service-shaped experiment the net layer exists for: **`--conns`
//! pipelined connections × `--threads` client workers** against a
//! kvserver, with Zipfian key skew (`--zipf`, the YCSB/Gray sampler in
//! `hemlock_harness::zipf`) setting how hard the store's central mutex
//! and shard locks are contended. By default it spawns the server
//! **in-process** on its own `TaskPool` (`--lock` picks the `async.*`
//! catalog algorithm); `--addr` points it at an external `kvserver`
//! instead.
//!
//! Closed loop by default: every connection keeps `--pipeline` requests
//! in flight and issues the next batch the moment the previous one
//! completes. `--rate <ops/s>` switches to an open loop, pacing each
//! connection to its share of the target rate. Per-request round-trip
//! latency lands in the log-bucketed histogram; the report is
//! throughput plus **p50/p99/p999**.
//!
//! The in-process server runs with **combined burst dispatch** by
//! default — each decoded pipeline burst becomes one
//! `AsyncKv::apply_batch_async` call through the store's flat-combining
//! layer; `--combine off` measures the per-op dispatch baseline instead.
//!
//! Output: aligned table (default), or `--json` normalized
//! bench-trajectory records (`bench: "loadgen.c<conns>.p<pipeline>"`,
//! `.combined`-suffixed in combined mode, with `p50_ns`/`p99_ns`/
//! `p999_ns` extras `bench_ci --loadgen` ignores). Banners go to stderr,
//! stdout stays machine-readable.
//!
//! Client RTT alone conflates queueing delay with service time, so
//! before shutdown loadgen also pulls the server-side view over the
//! `STATS` opcode (works for in-process and `--addr` servers alike) and
//! emits `srv_p50_ns`/`srv_p99_ns`/`srv_p999_ns`/`srv_requests` extras.
//! The server-side numbers are **windowed**: a snapshot is taken before
//! and after the measured runs and the extras come from their
//! difference, so an external `--addr` server's history (or this run's
//! own preload) does not dilute the percentiles. Server service time is
//! measured decode-to-encode, so RTT minus service time is the
//! queueing-plus-socket share. `--obs off` measures the metrics-disabled fast path
//! (the `STATS` reply then carries frozen counts).
//!
//! `--trace N` turns on the server's sampled request tracing (1 in N
//! request bursts) and, after the run, pulls the sampled spans over the
//! `TRACE` opcode, writes them as a Chrome-trace-event JSON document
//! (`--trace-out`, open in Perfetto or `chrome://tracing`), and emits an
//! **RTT decomposition**: per-sampled-request decode / queue / lock-wait
//! / hold / flush component percentiles as `trace_*` extras. With
//! `--addr`, start the remote `kvserver` with its own `--trace N`; the
//! fetch-and-decompose path works the same.

use hemlock_bench::ci::{self, RecordBuilder};
use hemlock_core::raw::RawTryLock;
use hemlock_harness::executor::TaskPool;
use hemlock_harness::{fmt_f64, Histogram, Mt19937, Reactor, Spec, Table, Zipf};
use hemlock_locks::catalog::{self, CatalogEntry, TimedLockVisitor, View};
use hemlock_minikv::{AsyncKv, Db, Options};
use hemlock_net::{spawn_server_with, AsyncConn, Client, Op, ServerHandle, ServerOptions};
use hemlock_obs::{trace, Pcts, Snapshot};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
struct Workload {
    conns: usize,
    workers: usize,
    pipeline: usize,
    keys: u64,
    theta: f64,
    read_pct: u32,
    value_size: usize,
    duration: Duration,
    /// Open-loop target in ops/s across all connections; `None` = closed
    /// loop.
    rate: Option<f64>,
}

struct RunStats {
    ops: u64,
    elapsed: Duration,
    latency: Histogram,
}

fn key_bytes(rank: u64) -> Vec<u8> {
    format!("key{rank:08}").into_bytes()
}

/// Sleeps until `deadline` by re-registering with the reactor each tick
/// (the open-loop pacer; resolution is the reactor tick).
async fn sleep_until(reactor: &Reactor, deadline: Instant) {
    std::future::poll_fn(|cx| {
        if Instant::now() >= deadline {
            Poll::Ready(())
        } else {
            reactor.register(cx.waker());
            Poll::Pending
        }
    })
    .await
}

/// One measured run: preload the keyspace, then hammer it for
/// `duration` from `conns` pipelined connections.
fn run_once(addr: SocketAddr, w: Workload) -> std::io::Result<RunStats> {
    // Preload over one blocking connection so GETs hit: every key gets a
    // value of the configured size.
    let mut pre = Client::connect(addr)?;
    let value = vec![b'v'; w.value_size];
    let keys: Vec<Vec<u8>> = (0..w.keys).map(key_bytes).collect();
    for chunk in keys.chunks(512) {
        let ops: Vec<Op<'_>> = chunk.iter().map(|k| Op::Put(k, &value)).collect();
        pre.pipeline(&ops)?;
    }
    drop(pre);

    let pool = TaskPool::new(w.workers);
    let reactor = Arc::new(Reactor::new());
    let zipf = Arc::new(Zipf::new(w.keys, w.theta).expect("validated by main"));
    let stop = Arc::new(AtomicBool::new(false));
    // Connect before starting the clock so the measured window is all
    // steady state.
    let conns: Vec<AsyncConn> = (0..w.conns)
        .map(|_| AsyncConn::connect(addr))
        .collect::<std::io::Result<_>>()?;

    let start = Instant::now();
    let handles: Vec<_> = conns
        .into_iter()
        .enumerate()
        .map(|(i, mut conn)| {
            let reactor = Arc::clone(&reactor);
            let zipf = Arc::clone(&zipf);
            let stop = Arc::clone(&stop);
            let value = value.clone();
            // Per-connection pacing interval: each batch of `pipeline`
            // ops is this connection's share of the open-loop rate.
            let batch_every = w
                .rate
                .map(|r| Duration::from_secs_f64(w.pipeline as f64 * w.conns as f64 / r));
            pool.spawn(async move {
                let mut rng = Mt19937::new(0xC0FFEE ^ (i as u32).wrapping_mul(0x9E37_79B9));
                let mut latency = Histogram::new();
                let mut ops_done = 0u64;
                let mut next_send = Instant::now();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Some(every) = batch_every {
                        sleep_until(&reactor, next_send).await;
                        next_send += every;
                    }
                    let batch_keys: Vec<Vec<u8>> = (0..w.pipeline)
                        .map(|_| key_bytes(zipf.sample(&mut rng)))
                        .collect();
                    let ops: Vec<Op<'_>> = batch_keys
                        .iter()
                        .map(|k| {
                            if rng.below(100) < w.read_pct {
                                Op::Get(k)
                            } else {
                                Op::Put(k, &value)
                            }
                        })
                        .collect();
                    let t0 = Instant::now();
                    match conn.batch(&reactor, &ops).await {
                        Ok(resps) => {
                            let ns = t0.elapsed().as_nanos() as u64;
                            for _ in &resps {
                                latency.record(ns);
                            }
                            ops_done += resps.len() as u64;
                        }
                        Err(_) => break, // server gone; report what we have
                    }
                }
                (ops_done, latency)
            })
        })
        .collect();

    std::thread::sleep(w.duration);
    stop.store(true, Ordering::Relaxed);
    let mut stats = RunStats {
        ops: 0,
        elapsed: Duration::ZERO,
        latency: Histogram::new(),
    };
    for h in handles {
        let (ops, lat) = h.join();
        stats.ops += ops;
        stats.latency.merge(&lat);
    }
    stats.elapsed = start.elapsed();
    Ok(stats)
}

/// Spawns the in-process server for whichever lock type the catalog key
/// dispatches to.
struct SpawnInProc {
    pool: Arc<TaskPool>,
    opts: ServerOptions,
}

impl TimedLockVisitor for SpawnInProc {
    type Output = std::io::Result<ServerHandle>;
    fn visit<L: RawTryLock + 'static>(self, _entry: &'static CatalogEntry) -> Self::Output {
        let kv: Arc<dyn AsyncKv> = Arc::new(Db::<L>::new(Options::default())).into_async_kv();
        spawn_server_with(&self.pool, kv, "127.0.0.1:0".parse().unwrap(), self.opts)
    }
}

fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The server's own view of the run, pulled over the `STATS` opcode:
/// service time is measured decode-to-encode on the server, so the
/// client RTT minus this is the queueing + socket share.
struct SrvStats {
    requests: f64,
    p50_ns: f64,
    p99_ns: f64,
    p999_ns: f64,
}

/// Fetches a full reconstructed server [`Snapshot`] (counters +
/// histogram buckets) over one fresh connection; `None` if the server is
/// gone or predates the `STATS` opcode (an external `--addr` server from
/// an older build hands an error response back).
fn fetch_srv_snapshot(addr: SocketAddr) -> Option<Snapshot> {
    let mut c = Client::connect(addr).ok()?;
    Some(Snapshot::parse_snapshot(&c.stats().ok()?))
}

/// Extracts [`SrvStats`] from the **windowed** delta of two snapshots:
/// the percentiles come from the bucket-wise difference of the service
/// histogram, so only requests served between the two fetches count.
fn srv_stats_from(after: &Snapshot, before: &Snapshot) -> Option<SrvStats> {
    let kv = after.delta(before).flatten();
    let get = |key: &str| kv.iter().find(|(k, _)| k.as_str() == key).map(|&(_, v)| v);
    Some(SrvStats {
        requests: get("net.requests")?,
        p50_ns: get("net.service_ns.p50")?,
        p99_ns: get("net.service_ns.p99")?,
        p999_ns: get("net.service_ns.p999")?,
    })
}

/// Fetches the server's sampled spans as a Chrome-trace JSON document
/// over the `TRACE` opcode.
fn fetch_trace(addr: SocketAddr) -> Option<String> {
    let mut c = Client::connect(addr).ok()?;
    c.trace_json().ok()
}

/// (p50, p99) of a raw nanosecond sample set, by sorting — the sampled
/// request population is small (ring-bounded), no histogram needed.
fn p50_p99(mut v: Vec<u64>) -> (f64, f64) {
    if v.is_empty() {
        return (0.0, 0.0);
    }
    v.sort_unstable();
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize] as f64;
    (at(0.50), at(0.99))
}

/// Component percentiles over every sampled request's RTT decomposition.
struct TraceReport {
    requests: usize,
    total: (f64, f64),
    decode: (f64, f64),
    queue: (f64, f64),
    lock_wait: (f64, f64),
    hold: (f64, f64),
    flush: (f64, f64),
}

impl TraceReport {
    fn from_decomps(ds: &[trace::RttDecomp]) -> TraceReport {
        let col = |f: fn(&trace::RttDecomp) -> u64| p50_p99(ds.iter().map(f).collect());
        TraceReport {
            requests: ds.len(),
            total: col(|d| d.total_ns),
            decode: col(|d| d.decode_ns),
            queue: col(|d| d.queue_ns),
            lock_wait: col(|d| d.lock_wait_ns),
            hold: col(|d| d.hold_ns),
            flush: col(|d| d.flush_ns),
        }
    }
}

struct Report {
    lock: String,
    workers: usize,
    combined: bool,
    w: Workload,
    ops_per_sec: f64,
    pcts: Pcts,
    srv: Option<SrvStats>,
    trace: Option<TraceReport>,
}

/// One bench-trajectory record through the shared [`RecordBuilder`]:
/// combined-mode runs get the `.combined` bench-key suffix, and the
/// client RTT + server service-time percentiles ride as
/// schema-invisible extras.
fn to_json(r: &Report) -> String {
    let mut b = RecordBuilder::new(format!("loadgen.c{}.p{}", r.w.conns, r.w.pipeline), &r.lock)
        .combined(r.combined)
        .threads(r.workers)
        .ops_per_sec(r.ops_per_sec)
        .extra("p50_ns", r.pcts.p50 as f64)
        .extra("p99_ns", r.pcts.p99 as f64)
        .extra("p999_ns", r.pcts.p999 as f64);
    if let Some(s) = &r.srv {
        b = b
            .extra("srv_requests", s.requests)
            .extra("srv_p50_ns", s.p50_ns)
            .extra("srv_p99_ns", s.p99_ns)
            .extra("srv_p999_ns", s.p999_ns);
    }
    if let Some(t) = &r.trace {
        b = b.extra("trace_requests", t.requests as f64);
        for (name, (p50, p99)) in [
            ("total", t.total),
            ("decode", t.decode),
            ("queue", t.queue),
            ("lockwait", t.lock_wait),
            ("hold", t.hold),
            ("flush", t.flush),
        ] {
            b = b
                .extra(format!("trace_{name}_p50_ns"), p50)
                .extra(format!("trace_{name}_p99_ns"), p99);
        }
    }
    ci::to_json(&[b.build()])
}

fn main() {
    let spec = Spec::new(
        "loadgen",
        "Pipelined TCP load generator for the networked minikv server",
    )
    .value(
        "addr",
        "connect to an external kvserver at ip:port (default: spawn in-process)",
    )
    .value(
        "lock",
        "in-process server's `async.*` lock and the record label (default async.hemlock; with --addr, pass the remote server's lock)",
    )
    .value(
        "server-threads",
        "in-process server TaskPool workers (default 4; ignored with --addr)",
    )
    .value("conns", "pipelined connections (default 64)")
    .value("threads", "client TaskPool workers (default 4)")
    .value("pipeline", "requests in flight per connection (default 8)")
    .value("keys", "key-space size (default 65536)")
    .value(
        "zipf",
        "Zipfian skew theta in [0,1); 0 = uniform (default 0.99)",
    )
    .value("read-pct", "percentage of GETs, rest PUTs (default 90)")
    .value("value-size", "PUT payload bytes (default 100)")
    .value(
        "rate",
        "open-loop target ops/s across all connections (default: closed loop)",
    )
    .value(
        "combine",
        "on|off (default on): in-process server dispatches each pipeline \
         burst as one flat-combined batch; `on` adds a `.combined` \
         bench-key suffix (with --addr it only labels the record)",
    )
    .value(
        "obs",
        "on|off (default on): observability collection in this process \
         (client + in-process server); `off` measures the disabled fast \
         path",
    )
    .value(
        "trace",
        "sample 1 in N request bursts for causal tracing (default 0 = \
         off); pulls spans over the TRACE opcode after the run and emits \
         an RTT decomposition (with --addr, start kvserver with --trace)",
    )
    .value(
        "trace-out",
        "path for the Chrome-trace JSON document (default \
         loadgen_trace.json; only written when tracing is on)",
    )
    .value("secs", "seconds per measured run (default 2)")
    .value("runs", "median-of-N runs (default 1)")
    .flag(
        "quick",
        "smoke-test preset (8 conns, small keyspace, short run)",
    )
    .flag("json", "emit one normalized bench-trajectory JSON record");
    let args = spec.parse_env();

    let quick = args.has("quick");
    let w = Workload {
        conns: or_exit(args.conns()).unwrap_or(if quick { 8 } else { 64 }),
        workers: args.get("threads", 4usize).max(1),
        pipeline: or_exit(args.pipeline()).unwrap_or(if quick { 4 } else { 8 }),
        keys: args.get("keys", if quick { 1024u64 } else { 65_536 }),
        theta: args.get("zipf", 0.99f64),
        read_pct: args.get("read-pct", 90u32).min(100),
        value_size: or_exit(args.value_size()).unwrap_or(100),
        duration: args.duration("secs", if quick { 0.3 } else { 2.0 }),
        rate: or_exit(args.get_parsed::<f64>("rate")).filter(|r| *r > 0.0),
    };
    if w.keys == 0 {
        or_exit::<()>(Err("--keys must be positive".to_string()));
    }
    // Validate the Zipf parameters up front with the CLI-shaped error.
    or_exit(Zipf::new(w.keys, w.theta).map(|_| ()));
    let runs: usize = args.get("runs", 1usize).max(1);
    let combine = match args.get_str("combine", "on").as_str() {
        "on" => true,
        "off" => false,
        other => {
            eprintln!("error: --combine must be `on` or `off`, got {other:?}");
            std::process::exit(2);
        }
    };
    match args.get_str("obs", "on").as_str() {
        "on" => hemlock_obs::init(),
        "off" => hemlock_obs::set_enabled(false),
        other => {
            eprintln!("error: --obs must be `on` or `off`, got {other:?}");
            std::process::exit(2);
        }
    }
    let json = args.has("json");
    let trace_every: u32 = args.get("trace", 0u32);
    let trace_out = args.get_str("trace-out", "loadgen_trace.json");
    if trace_every > 0 {
        // Applies to the in-process server (same process); an external
        // --addr server samples only if started with its own --trace.
        trace::set_sampling(trace_every, 0x5EED);
    }

    // External server, or an in-process one on its own pool.
    let lock_key = args.get_str("lock", "async.hemlock");
    let (addr, lock_name, server) = match or_exit(args.addr()) {
        Some(addr) => (addr, lock_key.clone(), None),
        None => {
            let entry = or_exit(catalog::lookup(View::Async, &lock_key));
            let server_pool = Arc::new(TaskPool::new(args.get("server-threads", 4usize).max(1)));
            let server = or_exit(
                catalog::with_timed_lock_type(
                    entry,
                    SpawnInProc {
                        pool: Arc::clone(&server_pool),
                        opts: ServerOptions { combine },
                    },
                )
                .expect("async entries are trylock-capable")
                .map_err(|e| format!("cannot spawn in-process server: {e}")),
            );
            // The pool must outlive the server; stash it via a leak-free
            // move into the tuple below.
            (
                server.local_addr(),
                entry.meta.name.to_string(),
                Some((server, server_pool)),
            )
        }
    };

    eprintln!(
        "# loadgen: {} conns x {} pipeline -> {} ({}, {} dispatch), {} run(s) x {:?}, {} keys zipf {}, {}% reads",
        w.conns,
        w.pipeline,
        addr,
        lock_name,
        if combine { "combined" } else { "per-op" },
        runs,
        w.duration,
        w.keys,
        w.theta,
        w.read_pct,
    );

    // Open the server-side measurement window: the delta of this
    // snapshot against the post-run one isolates the measured runs from
    // whatever the server served before (an external server's history).
    let before = fetch_srv_snapshot(addr);

    let mut results: Vec<RunStats> = (0..runs)
        .map(|_| {
            run_once(addr, w).unwrap_or_else(|e| {
                eprintln!("error: load run failed: {e}");
                std::process::exit(1);
            })
        })
        .collect();
    results.sort_by_key(|r| r.ops);
    let median = results.remove(results.len() / 2);

    // Close the window and pull the server-side view before tearing the
    // server down; `STATS`/`TRACE` round-trips work for in-process and
    // external alike.
    let srv = match (&before, fetch_srv_snapshot(addr)) {
        (Some(b), Some(a)) => srv_stats_from(&a, b),
        _ => None,
    };
    if let Some(s) = &srv {
        eprintln!(
            "# loadgen: server-side service time p50={}us p99={}us over {} request(s) \
             in the measured window (client RTT minus service time = queueing + socket)",
            fmt_f64(s.p50_ns / 1e3, 1),
            fmt_f64(s.p99_ns / 1e3, 1),
            s.requests as u64,
        );
    }

    let trace_report = if trace_every > 0 {
        match fetch_trace(addr) {
            Some(doc) => {
                if let Err(e) = std::fs::write(&trace_out, &doc) {
                    eprintln!("# loadgen: cannot write {trace_out}: {e}");
                } else {
                    eprintln!(
                        "# loadgen: wrote {trace_out} (open in Perfetto or chrome://tracing)"
                    );
                }
                let events = trace::parse_chrome_json(&doc);
                for err in trace::check_well_formed(&events) {
                    eprintln!("# loadgen: trace integrity: {err}");
                }
                let decomps = trace::decompose_requests(&events);
                let report = TraceReport::from_decomps(&decomps);
                if report.requests > 0 {
                    eprintln!(
                        "# loadgen: traced {} request(s); p50 decomposition: total={}us \
                         decode={}us queue={}us lockwait={}us hold={}us flush={}us",
                        report.requests,
                        fmt_f64(report.total.0 / 1e3, 1),
                        fmt_f64(report.decode.0 / 1e3, 1),
                        fmt_f64(report.queue.0 / 1e3, 1),
                        fmt_f64(report.lock_wait.0 / 1e3, 1),
                        fmt_f64(report.hold.0 / 1e3, 1),
                        fmt_f64(report.flush.0 / 1e3, 1),
                    );
                }
                Some(report)
            }
            None => {
                eprintln!("# loadgen: --trace set but the server answered no TRACE opcode");
                None
            }
        }
    } else {
        None
    };

    if let Some((server, _pool)) = server {
        let stats = server.shutdown();
        eprintln!(
            "# loadgen: in-process server served {} request(s) over {} connection(s)",
            stats.requests, stats.connections
        );
    }

    let report = Report {
        lock: lock_name,
        workers: w.workers,
        combined: combine,
        w,
        ops_per_sec: median.ops as f64 / median.elapsed.as_secs_f64(),
        pcts: median.latency.pcts(),
        srv,
        trace: trace_report,
    };

    if json {
        print!("{}", to_json(&report));
        return;
    }
    let mut t = Table::new(vec![
        "Lock", "Conns", "Pipeline", "Kops/s", "p50(us)", "p99(us)", "p999(us)",
    ]);
    t.row(vec![
        report.lock.clone(),
        report.w.conns.to_string(),
        report.w.pipeline.to_string(),
        fmt_f64(report.ops_per_sec / 1e3, 1),
        fmt_f64(report.pcts.p50 as f64 / 1e3, 1),
        fmt_f64(report.pcts.p99 as f64 / 1e3, 1),
        fmt_f64(report.pcts.p999 as f64 / 1e3, 1),
    ]);
    print!("{}", t.render());
}
