//! Loopback integration tests for the `hemlock-net` stack: a real TCP
//! server on the in-tree `TaskPool`, driven end-to-end through the
//! public client API, under **every** `async.*` catalog lock.
//!
//! The shutdown accounting is the load-bearing assertion: the server's
//! `requests` counter is incremented only after a response batch is
//! flushed, so `shutdown().requests == responses the client received`
//! proves no request was dropped on the floor and no response was left
//! unflushed. The test returning at all proves no task leaked —
//! `shutdown` joins the acceptor task and every per-connection task.

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

/// Shutdown with open, idle peers: eight clients each make one round
/// trip and then sit connected and silent, so every connection task is
/// parked in a read when `shutdown` runs. The reactor's stop must wake
/// each of them (no readiness event ever will), and the accounting must
/// still hold.
#[test]
fn shutdown_returns_promptly_with_idle_connected_peers() {
    const PEERS: usize = 8;
    let pool = Arc::new(TaskPool::new(2));
    let server = catalog::with_timed_lock_type(
        catalog::find(View::Async, "async.hemlock").expect("async.hemlock is in the catalog"),
        Spawn {
            pool: &pool,
            opts: ServerOptions::default(),
        },
    )
    .expect("async entries are trylock-capable");
    let idle: Vec<Client> = (0..PEERS)
        .map(|_| {
            let mut c = Client::connect(server.local_addr()).expect("connect");
            c.ping().expect("one round trip");
            c
        })
        .collect();

    // Shut down on a helper thread so a lost stop fails the test instead
    // of hanging it.
    let (done, finished) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || done.send(server.shutdown()));
    let stats = finished
        .recv_timeout(std::time::Duration::from_secs(2))
        .expect("shutdown must return within 2 s with idle peers connected");
    stopper
        .join()
        .expect("shutdown thread")
        .expect("stats sent");
    assert_eq!(stats.connections, PEERS);
    assert_eq!(stats.requests, PEERS as u64);
    drop(idle);
}

/// One pool serving two live servers: its only worker parks the first
/// server's sockets on that server's reactor, its home, so the second
/// reactor has no executor thread of its own to wait in its epoll. Its
/// fallback driver must serve it; without one, this test hangs.
#[test]
fn two_live_servers_on_one_worker_each_serve_their_peers() {
    const TRIPS: u64 = 100;
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pool = Arc::new(TaskPool::new(1));
        let spawn = || {
            catalog::with_timed_lock_type(
                catalog::find(View::Async, "async.hemlock")
                    .expect("async.hemlock is in the catalog"),
                Spawn {
                    pool: &pool,
                    opts: ServerOptions::default(),
                },
            )
            .expect("async entries are trylock-capable")
        };
        let servers = [spawn(), spawn()];
        let mut clients: Vec<Client> = servers
            .iter()
            .map(|s| Client::connect(s.local_addr()).expect("connect"))
            .collect();
        for i in 0..TRIPS {
            for c in &mut clients {
                let key = format!("k{}", i % 8).into_bytes();
                c.put(&key, b"v").expect("put");
            }
        }
        drop(clients);
        let served: Vec<u64> = servers.into_iter().map(|s| s.shutdown().requests).collect();
        done.send(served).unwrap();
    });
    let served = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("both servers must answer every round trip");
    assert_eq!(served, [TRIPS, TRIPS]);
}

/// A peer whose frame header declares one byte more than `MAX_FRAME`
/// breaks the protocol: the server drops that connection, counts the drop
/// under `net.drop.protocol`, and keeps serving every other peer.
#[test]
fn an_oversized_frame_header_drops_only_that_connection() {
    use std::io::{ErrorKind, Read, Write};
    // The registry is process-wide: compare a delta, never a total.
    let drops = || hemlock_obs::registry().net_drop_protocol.get();
    let before = drops();
    let pool = Arc::new(TaskPool::new(2));
    let server = catalog::with_timed_lock_type(
        catalog::find(View::Async, "async.hemlock").expect("async.hemlock is in the catalog"),
        Spawn {
            pool: &pool,
            opts: ServerOptions::default(),
        },
    )
    .expect("async entries are trylock-capable");

    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    let header = u32::try_from(hemlock_net::MAX_FRAME + 1).expect("fits the u32 prefix");
    raw.write_all(&header.to_be_bytes()).expect("send header");
    match raw.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        other => panic!("the server must close the connection, got {other:?}"),
    }
    assert!(drops() > before, "the protocol drop must be counted");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.put(b"k", b"v").expect("put");
    assert_eq!(c.get(b"k").expect("get"), Some(b"v".to_vec()));
    drop(c);
    drop(raw);
    let stats = server.shutdown();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.requests, 2);
}
