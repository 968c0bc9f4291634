//! `kvserver`: the networked minikv server as a standalone binary.
//!
//! Binds `--addr`, builds a [`hemlock_minikv::Db`] over the `async.*`
//! catalog lock named by `--lock` (the lock algorithm is a *runtime*
//! choice — the whole point of the [`hemlock_minikv::AsyncKv`] erasure),
//! and serves task-per-connection on a `TaskPool` of `--threads`
//! workers. With `--secs` it runs that long, shuts down gracefully, and
//! prints totals; without, it serves until the process is killed.
//!
//! ```text
//! kvserver --addr 127.0.0.1:7878 --lock async.hemlock --threads 4 &
//! loadgen  --addr 127.0.0.1:7878 --conns 64 --pipeline 8
//! ```

use hemlock_async::catalog::{self, CatalogEntry, TimedLockVisitor, View};
use hemlock_core::raw::RawTryLock;
use hemlock_harness::executor::TaskPool;
use hemlock_harness::Spec;
use hemlock_minikv::{AsyncKv, Db, Options};
use hemlock_net::spawn_server;
use std::sync::Arc;
use std::time::Duration;

/// Builds an `Arc<dyn AsyncKv>` for whichever lock type the catalog key
/// dispatches to.
struct MakeDb;

impl TimedLockVisitor for MakeDb {
    type Output = Arc<dyn AsyncKv>;
    fn visit<L: RawTryLock + 'static>(self, _entry: &'static CatalogEntry) -> Self::Output {
        Arc::new(Db::<L>::new(Options::default())).into_async_kv()
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
        "kvserver",
        "Networked minikv server on the in-tree TaskPool",
    )
    .value(
        "addr",
        "ip:port to bind (default 127.0.0.1:7878; port 0 picks one)",
    )
    .value(
        "lock",
        "central-mutex algorithm, one `async.*` catalog key (default async.hemlock)",
    )
    .value(
        "threads",
        "TaskPool worker threads serving connections (default 4)",
    )
    .value(
        "secs",
        "serve this long then shut down gracefully (default: until killed)",
    )
    .value(
        "obs",
        "on|off (default on): observability collection; `off` measures \
         the disabled fast path (STATS still answers, with frozen counts)",
    )
    .value(
        "stats-interval",
        "dump the metrics snapshot to stderr every this many ms (default \
         0: never)",
    )
    .value(
        "trace",
        "sample 1 in N request bursts for causal tracing (default 0 = \
         off); clients pull the spans as Chrome-trace JSON over the \
         TRACE opcode, the lock events over RECORDER",
    )
    .value(
        "trace-seed",
        "offsets which bursts the deterministic trace sampler picks \
         (default 0)",
    );
    let args = spec.parse_env();

    let addr = or_exit(args.addr()).unwrap_or_else(|| "127.0.0.1:7878".parse().unwrap());
    let lock_key = args.get_str("lock", "async.hemlock");
    let workers: usize = args.get("threads", 4);
    let secs: f64 = args.get("secs", 0.0);
    match args.get_str("obs", "on").as_str() {
        "on" => hemlock_obs::init(),
        "off" => hemlock_obs::set_enabled(false),
        other => {
            eprintln!("error: --obs must be `on` or `off`, got {other:?}");
            std::process::exit(2);
        }
    }
    let stats_interval_ms: u64 = args.get("stats-interval", 0);
    let trace_every: u32 = args.get("trace", 0u32);
    if trace_every > 0 {
        hemlock_obs::trace::set_sampling(trace_every, args.get("trace-seed", 0u64));
    }

    let entry = or_exit(catalog::lookup(View::Async, &lock_key));
    let kv =
        catalog::with_timed_lock_type(entry, MakeDb).expect("async entries are trylock-capable");

    let pool = Arc::new(TaskPool::new(workers.max(1)));
    let server = spawn_server(&pool, kv, addr).unwrap_or_else(|e| {
        eprintln!("error: cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "# kvserver: serving {} on {} ({} workers){}",
        entry.meta.name,
        server.local_addr(),
        pool.workers(),
        if secs > 0.0 {
            format!(", for {secs}s")
        } else {
            String::new()
        }
    );
    if trace_every > 0 {
        eprintln!("# kvserver: tracing 1 in {trace_every} request burst(s)");
    }

    if stats_interval_ms > 0 {
        // Periodic stderr dump, one daemon thread: the registry is a
        // static, so the snapshot needs no handle to the server.
        std::thread::Builder::new()
            .name("hemlock-statsdump".to_string())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(stats_interval_ms));
                eprintln!(
                    "# kvserver stats\n{}",
                    hemlock_obs::registry().snapshot().render_text()
                );
            })
            .expect("spawn stats thread");
    }

    if secs > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(secs));
        let stats = server.shutdown();
        println!(
            "kvserver: {} connection(s), {} request(s) served",
            stats.connections, stats.requests
        );
    } else {
        // Serve until killed: the acceptor task owns the listener and
        // the pool's workers serve, so the main thread just sleeps.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
}
