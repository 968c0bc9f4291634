//! Loopback integration tests for the `hemlock-net` stack: a real TCP
//! server on the in-tree `TaskPool`, driven end-to-end through the
//! public client API, under **every** `async.*` catalog lock.
//!
//! The shutdown accounting is the load-bearing assertion: the server's
//! `requests` counter is incremented only after a response batch is
//! flushed, so `shutdown().requests == responses the client received`
//! proves no request was dropped on the floor and no response was left
//! unflushed. The test returning at all proves no task leaked —
//! `shutdown` joins the acceptor thread and every per-connection task.

use hemlock_async::catalog::{self, CatalogEntry, TimedLockVisitor, View};
use hemlock_core::raw::RawTryLock;
use hemlock_harness::executor::TaskPool;
use hemlock_harness::reactor::Reactor;
use hemlock_minikv::{AsyncKv, Db, Options};
use hemlock_net::{
    spawn_server_with, AsyncConn, Client, Op, Response, ServerHandle, ServerOptions,
};
use std::sync::Arc;

fn tiny_opts() -> Options {
    Options {
        memtable_bytes: 16 << 10,
        max_runs: 4,
        mem_shards: 4,
    }
}

/// Spawns a fresh server over a `Db<L>` for the given catalog entry.
struct Spawn<'a> {
    pool: &'a Arc<TaskPool>,
    opts: ServerOptions,
}

impl TimedLockVisitor for Spawn<'_> {
    type Output = ServerHandle;
    fn visit<L: RawTryLock + 'static>(self, _entry: &'static CatalogEntry) -> ServerHandle {
        let kv: Arc<dyn AsyncKv> = Arc::new(Db::<L>::new(tiny_opts())).into_async_kv();
        spawn_server_with(self.pool, kv, "127.0.0.1:0".parse().unwrap(), self.opts)
            .expect("bind loopback")
    }
}

/// Sequential + pipelined round-trips; returns the number of responses
/// the client actually received (== requests it sent, if nothing was
/// lost).
fn drive(addr: std::net::SocketAddr, lock: &str) -> u64 {
    let mut c = Client::connect(addr).expect("connect");
    let mut responses = 0u64;

    // Sequential round-trips through each verb.
    c.ping().unwrap();
    responses += 1;
    assert_eq!(c.get(b"alpha").unwrap(), None, "{lock}: miss before put");
    responses += 1;
    c.put(b"alpha", b"one").unwrap();
    responses += 1;
    assert_eq!(
        c.get(b"alpha").unwrap(),
        Some(b"one".to_vec()),
        "{lock}: hit after put"
    );
    responses += 1;
    c.delete(b"alpha").unwrap();
    responses += 1;
    assert_eq!(c.get(b"alpha").unwrap(), None, "{lock}: miss after delete");
    responses += 1;

    // One pipelined batch mixing all verbs; responses must come back in
    // op order (matched by request id, not wire order).
    let ops = [
        Op::Put(b"k0", b"v0"),
        Op::Put(b"k1", b"v1"),
        Op::Get(b"k0"),
        Op::Delete(b"k0"),
        Op::Get(b"k0"),
        Op::Get(b"k1"),
        Op::Ping,
    ];
    let rs = c.pipeline(&ops).unwrap();
    responses += rs.len() as u64;
    assert!(matches!(rs[0], Response::Ok { .. }), "{lock}");
    assert!(matches!(rs[1], Response::Ok { .. }), "{lock}");
    assert!(
        matches!(&rs[2], Response::Value { value, .. } if value == b"v0"),
        "{lock}: pipelined get sees earlier pipelined put"
    );
    assert!(matches!(rs[3], Response::Ok { .. }), "{lock}");
    assert!(
        matches!(rs[4], Response::NotFound { .. }),
        "{lock}: pipelined get sees earlier pipelined delete"
    );
    assert!(
        matches!(&rs[5], Response::Value { value, .. } if value == b"v1"),
        "{lock}"
    );
    assert!(matches!(rs[6], Response::Pong { .. }), "{lock}");

    responses
}

/// GET/PUT/DELETE/PING round-trips + graceful shutdown accounting under
/// every abortable lock in the `async.*` catalog — in **both** dispatch
/// modes, so the combined (batched) server path proves itself
/// observably identical to the per-op baseline on every lock.
#[test]
fn round_trips_and_graceful_shutdown_under_every_async_lock() {
    let pool = Arc::new(TaskPool::new(2));
    for combine in [true, false] {
        let opts = ServerOptions { combine };
        for entry in catalog::entries(View::Async) {
            let key = entry.key;
            let server = catalog::with_timed_lock_type(entry, Spawn { pool: &pool, opts })
                .expect("async entries are trylock-capable");
            let responses = drive(server.local_addr(), key);
            let stats = server.shutdown();
            assert_eq!(
                stats.connections, 1,
                "{key} combine={combine}: one client connected"
            );
            assert_eq!(
                stats.requests, responses,
                "{key} combine={combine}: every request the client saw answered must be counted served"
            );
        }
    }
}

/// The acceptance-criterion scale point, kept cheap enough for tier-1:
/// 64 concurrent pipelined connections against one server, all served
/// by the fixed-size `TaskPool`, with the same no-request-lost shutdown
/// accounting.
#[test]
fn sixty_four_pipelined_connections_survive_shutdown_accounting() {
    const CONNS: usize = 64;
    const BATCHES: usize = 4;
    const PIPELINE: usize = 8;

    let server_pool = Arc::new(TaskPool::new(4));
    let server = catalog::with_timed_lock_type(
        catalog::find(View::Async, "async.hemlock").expect("async.hemlock is in the catalog"),
        Spawn {
            pool: &server_pool,
            opts: ServerOptions::default(),
        },
    )
    .expect("async entries are trylock-capable");
    let addr = server.local_addr();

    // Drive the clients from their own pool so 64 connections need only
    // a handful of OS threads; `AsyncConn` multiplexes via the reactor.
    let client_pool = Arc::new(TaskPool::new(4));
    let reactor = Arc::new(Reactor::new());
    let handles: Vec<_> = (0..CONNS)
        .map(|i| {
            let reactor = Arc::clone(&reactor);
            client_pool.spawn(async move {
                let mut conn = AsyncConn::connect(addr).expect("connect");
                let mut got = 0u64;
                for b in 0..BATCHES {
                    // Even batches PUT these keys, odd batches GET them
                    // back — so the key must not encode the batch number.
                    let keys: Vec<Vec<u8>> = (0..PIPELINE)
                        .map(|j| format!("c{i:02}.k{j}").into_bytes())
                        .collect();
                    let ops: Vec<Op<'_>> = keys
                        .iter()
                        .map(|k| {
                            if b % 2 == 0 {
                                Op::Put(k, b"payload")
                            } else {
                                Op::Get(k)
                            }
                        })
                        .collect();
                    let rs = conn.batch(&reactor, &ops).await.expect("batch");
                    assert_eq!(rs.len(), PIPELINE);
                    for r in &rs {
                        match (b % 2 == 0, r) {
                            (true, Response::Ok { .. }) => {}
                            (false, Response::Value { value, .. }) => {
                                assert_eq!(value, b"payload")
                            }
                            (want_put, other) => {
                                panic!("conn {i} batch {b}: want_put={want_put}, got {other:?}")
                            }
                        }
                    }
                    got += rs.len() as u64;
                }
                got
            })
        })
        .collect();

    let total: u64 = handles.into_iter().map(|h| h.join()).sum();
    assert_eq!(total, (CONNS * BATCHES * PIPELINE) as u64);

    let stats = server.shutdown();
    assert_eq!(stats.connections, CONNS);
    assert_eq!(
        stats.requests, total,
        "graceful shutdown must account for every pipelined response the clients received"
    );
}
