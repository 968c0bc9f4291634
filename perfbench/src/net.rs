//! The two loopback workloads: an in-process `spawn_server` (default
//! options, so bursts go through `apply_batch_async`) over a `Db` on a
//! 2-worker `TaskPool`, driven by one client thread that runs two
//! `AsyncConn`s in a closed loop.
//!
//! - `net-pipelined-hot`: 8 requests in flight per connection, 65,536
//!   keys drawn Zipf(0.99), 90% GET. CPU-bound, so per-request CPU in
//!   codec, executor, combining and locks shows as throughput.
//! - `net-unpipelined`: 1 request in flight per connection, 4,096 uniform
//!   keys (they fit the memtable), 90% GET. Wake-up latency dominates.

use crate::gen::{key_bytes, Batch, Expect, KeyDist, Keys, Rng, Versions};
use crate::phase::{Plan, Sampler, Tally, Window};
use crate::procfs::{self, Task};
use crate::spy::{CallStats, SpyKv};
use crate::store::{db_lock_bytes, preload, StoreMark};
use crate::timed;
use hemlock_core::raw::RawTryLock;
use hemlock_harness::{block_on, Reactor, TaskPool};
use hemlock_minikv::{AsyncKv, Db, Options};
use hemlock_net::{spawn_server, AsyncConn, Op, Response, ServerHandle};
use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

pub const CONNS: usize = 2;
pub const POOL_WORKERS: usize = 2;
const READ_PCT: u64 = 90;
/// Batches per connection before the window opens.
const WARMUP_BATCHES: u64 = 2_000;

/// The traffic one connection generates.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub pipeline: usize,
    pub keys: u64,
    pub dist: KeyDist,
}

pub const PIPELINED_HOT: Shape = Shape {
    pipeline: 8,
    keys: 65_536,
    dist: KeyDist::Zipf(0.99),
};

pub const UNPIPELINED: Shape = Shape {
    pipeline: 1,
    keys: 4_096,
    dist: KeyDist::Uniform,
};

/// One client connection and everything it needs to check its replies.
struct Client {
    conn: AsyncConn,
    /// The id the server must echo for the next request (the connection
    /// numbers requests from 1, consecutively).
    next_id: u64,
    rng: Rng,
    versions: Versions,
    sampler: Keys,
    tally: Option<Tally>,
    /// Failures outside the window (warm-up) or after a lost connection.
    failed: u64,
    broken: bool,
}

enum Until {
    Batches(u64),
    Deadline(Instant),
}

/// Checks replies against their batch; returns (failed, values verified).
fn check(b: &Batch, base_id: u64, resps: &[Response], v: &Versions) -> (u64, u64) {
    if resps.len() != b.expect.len() {
        return (b.expect.len() as u64, 0);
    }
    let (mut failed, mut verified) = (0, 0);
    for (i, r) in resps.iter().enumerate() {
        let ok = r.id() == base_id + i as u64
            && match (b.expect[i], r) {
                (Expect::Done, Response::Ok { .. }) => true,
                (Expect::Value { .. }, Response::Value { value, .. }) => {
                    verified += 1;
                    b.check_get(i, Some(value), v)
                }
                _ => false,
            };
        failed += u64::from(!ok);
    }
    (failed, verified)
}

async fn drive(c: &mut Client, reactor: &Reactor, keys: &[Vec<u8>], shape: Shape, until: Until) {
    let mut batches = 0;
    while !c.broken {
        match until {
            Until::Batches(n) if batches >= n => break,
            Until::Deadline(t) if Instant::now() >= t => break,
            _ => {}
        }
        batches += 1;
        let b = Batch::draw(
            shape.pipeline,
            READ_PCT,
            &c.sampler,
            &mut c.rng,
            &mut c.versions,
        );
        let ops: Vec<Op<'_>> = b
            .keys
            .iter()
            .zip(&b.puts)
            .map(|(&k, put)| match put {
                Some(v) => Op::Put(&keys[k as usize], v),
                None => Op::Get(&keys[k as usize]),
            })
            .collect();
        let base_id = c.next_id;
        c.next_id += ops.len() as u64;
        let t0 = Instant::now();
        let reply = c.conn.batch(reactor, &ops).await;
        let t1 = Instant::now();
        let n = ops.len() as u64;
        let (failed, verified) = match &reply {
            Ok(resps) => check(&b, base_id, resps, &c.versions),
            Err(e) => {
                eprintln!("perfbench: connection failed: {e}");
                c.broken = true;
                (n, 0)
            }
        };
        match c.tally.as_mut() {
            Some(t) => {
                t.attempted += n;
                t.failed += failed;
                t.verified += verified;
                let rtt_ns = t1.duration_since(t0).as_nanos() as u64;
                t.completed(n - failed, t1);
                t.latency(t1, rtt_ns, n);
            }
            None => c.failed += failed,
        }
    }
}

/// Drives both connections concurrently on the calling thread.
fn drive_all(
    clients: &mut [Client],
    reactor: &Reactor,
    keys: &[Vec<u8>],
    shape: Shape,
    until: impl Fn() -> Until,
) {
    let [a, b] = clients else {
        unreachable!("two connections")
    };
    let mut fa = pin!(drive(a, reactor, keys, shape, until()));
    let mut fb = pin!(drive(b, reactor, keys, shape, until()));
    let (mut da, mut db) = (false, false);
    block_on(std::future::poll_fn(|cx| {
        da = da || fa.as_mut().poll(cx).is_ready();
        db = db || fb.as_mut().poll(cx).is_ready();
        if da && db {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    }));
}

/// Threads that appeared between two task listings.
fn new_tasks(before: &[Task], after: Vec<Task>) -> Vec<Task> {
    after
        .into_iter()
        .filter(|t| !before.iter().any(|b| b.tid == t.tid))
        .collect()
}

fn tids(tasks: &[Task], prefix: &str) -> Vec<u32> {
    tasks
        .iter()
        .filter(|t| t.name.starts_with(prefix))
        .map(|t| t.tid)
        .collect()
}

struct Deployment<L: RawTryLock + 'static> {
    pool: Arc<TaskPool>,
    db: Arc<Db<L>>,
    server: ServerHandle,
    reactor: Reactor,
    clients: Vec<Client>,
    /// Pool workers, the server's reactor and its acceptor.
    server_tasks: Vec<Task>,
    client_reactor: Vec<Task>,
    preload_failed: u64,
}

fn deploy<L: RawTryLock + 'static>(
    plan: &Plan,
    shape: Shape,
    keys: &[Vec<u8>],
    spy: Option<&Arc<CallStats>>,
) -> Deployment<L> {
    let before = procfs::tasks();
    let pool = Arc::new(TaskPool::new(POOL_WORKERS));
    let db = Arc::new(Db::<L>::new(Options::default()));
    let preload_failed = preload(&db, keys);
    let mut kv: Arc<dyn AsyncKv> = Arc::clone(&db).into_async_kv();
    if let Some(stats) = spy {
        kv = Arc::new(SpyKv::new(kv, Arc::clone(stats)));
    }
    let server = spawn_server(&pool, kv, "127.0.0.1:0".parse().expect("loopback"))
        .expect("spawn the loopback server");
    let server_tasks = new_tasks(&before, procfs::tasks());
    let with_server = procfs::tasks();
    let reactor = Reactor::new();
    let client_reactor = new_tasks(&with_server, procfs::tasks());
    let clients = (0..CONNS as u64)
        .map(|c| Client {
            conn: AsyncConn::connect(server.local_addr()).expect("connect to the loopback server"),
            next_id: 1,
            rng: Rng::new(plan.seed, c),
            versions: Versions::new(c, CONNS as u64, shape.keys),
            sampler: Keys::new(shape.keys, shape.dist),
            tally: None,
            failed: 0,
            broken: false,
        })
        .collect();
    Deployment {
        pool,
        db,
        server,
        reactor,
        clients,
        server_tasks,
        client_reactor,
        preload_failed,
    }
}

impl<L: RawTryLock + 'static> Deployment<L> {
    /// Closes the clients, then the server, then its pool.
    fn teardown(self) {
        drop(self.clients);
        self.server.shutdown();
        drop(self.pool);
        drop(self.reactor);
    }
}

pub fn measure<L: RawTryLock + 'static>(plan: &Plan, shape: Shape) -> Window {
    let keys: Vec<Vec<u8>> = (0..shape.keys).map(key_bytes).collect();
    let spy = plan.traced.then(|| Arc::new(CallStats::default()));
    let mut w = Window::default();
    for rep in 0..plan.setup_reps {
        let t0 = Instant::now();
        let mut d = deploy::<L>(plan, shape, &keys, spy.as_ref());
        drive_all(&mut d.clients, &d.reactor, &keys, shape, || {
            Until::Batches(WARMUP_BATCHES)
        });
        w.setup_s.push(t0.elapsed().as_secs_f64());
        if rep > 0 {
            d.teardown();
            continue;
        }

        let mark = StoreMark::take(&d.db);
        let cpu0 = procfs::cpu_by_tid();
        if let Some(s) = &spy {
            s.set_recording(true);
        }
        timed::set_recording(plan.traced);
        let start = Instant::now();
        for c in &mut d.clients {
            c.tally = Some(Tally::new(start, plan));
        }
        let end = start + plan.window;
        let sampler = Sampler::start(start, plan);
        drive_all(&mut d.clients, &d.reactor, &keys, shape, || {
            Until::Deadline(end)
        });
        w.elapsed_s = start.elapsed().as_secs_f64();
        w.host = sampler.finish();
        timed::set_recording(false);
        if let Some(s) = &spy {
            s.set_recording(false);
        }
        let cpu1 = procfs::cpu_by_tid();

        w.failed += d.preload_failed;
        for c in &mut d.clients {
            w.failed += c.failed;
            w.absorb(c.tally.take().expect("set for the window"));
        }
        w.lock_bytes = db_lock_bytes::<L>(d.db.memtable_shards(), POOL_WORKERS);
        if let Some(spy) = &spy {
            let ops = w.ops().max(1) as f64;
            let cpu = |tids: &[u32]| procfs::cpu_delta(&cpu0, &cpu1, tids) as f64;
            let all: Vec<u32> = cpu1.keys().copied().collect();
            let server: Vec<u32> = d.server_tasks.iter().map(|t| t.tid).collect();
            let client_reactor = tids(&d.client_reactor, "hemlock-reactor");
            let mut client = client_reactor.clone();
            client.push(procfs::current_tid());
            let mut reactors = tids(&d.server_tasks, "hemlock-reactor");
            reactors.extend(client_reactor);
            let process = cpu(&all).max(1.0);
            let calls = spy.summary();
            let n_calls = calls.calls.max(1) as f64;
            let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
            w.layers = mark.layers_since(&d.db, w.ops(), w.elapsed_s);
            w.layers.extend([
                ("minikv.call_ns.p50", calls.call_ns.quantile(0.5)),
                ("minikv.call_ns.p99", calls.call_ns.quantile(0.99)),
                ("minikv.ops_per_call", calls.ops as f64 / n_calls),
                ("async.pending_per_call", calls.pending as f64 / n_calls),
                (
                    "net.non_store_frac",
                    1.0 - calls.call_ns.mean() / w.lat().mean().max(1.0),
                ),
                ("net.server_cpu_ns_per_op", cpu(&server) / ops),
                ("net.client_cpu_ns_per_op", cpu(&client) / ops),
                ("harness.reactor_cpu_frac", cpu(&reactors) / process),
                (
                    "harness.pool_cpu_ns_per_op",
                    cpu(&tids(&d.server_tasks, "hemlock-pool")) / ops,
                ),
                (
                    "harness.idle_frac",
                    1.0 - process / (nproc * w.elapsed_s * 1e9),
                ),
            ]);
        }
        d.teardown();
    }
    w
}
