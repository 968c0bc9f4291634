//! The serving stack's thread shape: a ready socket wakes the thread that
//! serves it, so the perfbench net shape runs no relay thread.
//!
//! The server runs on a 2-worker `TaskPool` and one `block_on` drives two
//! `AsyncConn`s over a fresh `Reactor`, as in perfbench's `net-*`
//! workloads. The pool workers wait in the server reactor's epoll and the
//! client thread in its own, so no `hemlock-reactor` fallback driver and
//! no acceptor thread may appear. This file holds one test on purpose: a
//! test running beside it could start a fallback driver of its own.

use hemlock_core::hemlock::Hemlock;
use hemlock_harness::executor::{block_on, TaskPool};
use hemlock_harness::reactor::Reactor;
use hemlock_minikv::{Db, Options};
use hemlock_net::{spawn_server, AsyncConn, Op, Response};
use std::future::Future;
use std::pin::pin;
use std::sync::Arc;
use std::task::Poll;

fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect()
}

/// One connection's share of the round trips: a PUT, then a GET of it.
async fn round_trips(conn: &mut AsyncConn, reactor: &Reactor, tag: u8, trips: usize) {
    for i in 0..trips {
        let key = [tag, i as u8];
        let op = if i % 2 == 0 {
            Op::Put(&key, b"v")
        } else {
            Op::Get(&key)
        };
        let resp = conn.batch(reactor, &[op]).await.expect("round trip");
        assert!(
            matches!(
                resp[0],
                Response::Ok { .. } | Response::Value { .. } | Response::NotFound { .. }
            ),
            "{resp:?}"
        );
    }
}

#[test]
fn perfbench_shape_starts_no_helper_thread() {
    let pool = Arc::new(TaskPool::new(2));
    let db: Arc<Db<Hemlock>> = Arc::new(Db::new(Options::default()));
    let server = spawn_server(&pool, db.into_async_kv(), "127.0.0.1:0".parse().unwrap())
        .expect("bind loopback");
    let reactor = Reactor::new();
    let mut a = AsyncConn::connect(server.local_addr()).expect("connect");
    let mut b = AsyncConn::connect(server.local_addr()).expect("connect");
    {
        // 200 round trips, two connections in flight on one thread.
        let mut fa = pin!(round_trips(&mut a, &reactor, 1, 100));
        let mut fb = pin!(round_trips(&mut b, &reactor, 2, 100));
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
    let names = thread_names();
    assert_eq!(
        names
            .iter()
            .filter(|n| n.starts_with("hemlock-pool"))
            .count(),
        2,
        "threads: {names:?}"
    );
    for helper in ["hemlock-reactor", "hemlock-accept"] {
        assert!(
            !names.iter().any(|n| n == helper),
            "{helper} is running: {names:?}"
        );
    }
    drop((a, b));
    assert_eq!(server.shutdown().requests, 200);
}
