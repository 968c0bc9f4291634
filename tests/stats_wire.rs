//! End-to-end acceptance for the `STATS` opcode: a kvserver under
//! pipelined traffic answers with nonzero acquisition, batch, and
//! service-time metrics — the live-system observability the subsystem
//! exists for.

use hemlock_core::hemlock::Hemlock;
use hemlock_harness::executor::TaskPool;
use hemlock_minikv::{AsyncKv, Db, Options};
use hemlock_net::{spawn_server, Client, Op};
use hemlock_obs::Snapshot;
use std::sync::Arc;

#[test]
fn stats_opcode_reports_live_metrics() {
    hemlock_obs::init();
    let pool = Arc::new(TaskPool::new(2));
    let kv: Arc<dyn AsyncKv> = Arc::new(Db::<Hemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server(&pool, kv, "127.0.0.1:0".parse().unwrap()).expect("bind loopback");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    for round in 0..32 {
        let key = format!("key{round:04}");
        c.pipeline(&[
            Op::Put(key.as_bytes(), b"value"),
            Op::Get(key.as_bytes()),
            Op::Get(b"never-written"),
            Op::Delete(key.as_bytes()),
        ])
        .expect("pipelined batch");
    }

    let text = c.stats().expect("STATS round-trip");
    let snap = Snapshot::parse_text(&text);
    let get = |k: &str| {
        snap.iter()
            .find(|(key, _)| key == k)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("key {k:?} missing from STATS text:\n{text}"))
    };

    // The acceptance triple: acquire, batch, and service-time metrics all
    // nonzero under traffic.
    assert!(get("minikv.acquires") > 0.0, "acquire metric:\n{text}");
    assert!(
        get("minikv.batch_size.count") > 0.0,
        "batch metric:\n{text}"
    );
    assert!(get("net.service_ns.count") > 0.0, "RTT metric:\n{text}");
    // And the surrounding bookkeeping is consistent with what we sent:
    // 128 KV ops + the STATS request itself are at least 128 requests
    // over at least one connection.
    assert!(get("net.requests") >= 128.0, "requests:\n{text}");
    assert!(get("net.connections") >= 1.0, "connections:\n{text}");
    assert!(get("minikv.gets") >= 64.0, "gets:\n{text}");
    assert!(get("minikv.puts") >= 32.0, "puts:\n{text}");

    drop(c);
    server.shutdown();
}
