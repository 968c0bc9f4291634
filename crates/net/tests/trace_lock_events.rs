//! `TRACE` carries the lock events of sampled requests only: a server on
//! an observed lock, sampling one request burst in two, answers a
//! document with no `lock` instant of trace id 0 and at least one of a
//! sampled id, while `RECORDER` still renders every lock event.
//!
//! Kept in its own binary: sampling is process-global.

use hemlock_harness::executor::TaskPool;
use hemlock_minikv::{Db, Options};
use hemlock_net::{spawn_server, Client, Op};
use hemlock_obs::{trace, ObservedHemlock};
use std::sync::Arc;

#[test]
fn trace_keeps_only_the_lock_events_of_sampled_requests() {
    trace::set_sampling(2, 0);
    let pool = Arc::new(TaskPool::new(1));
    let kv = Arc::new(Db::<ObservedHemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server(&pool, kv, "127.0.0.1:0".parse().unwrap()).expect("spawn server");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    for round in 0..16u32 {
        let key = format!("k{round}");
        c.pipeline(&[Op::Put(key.as_bytes(), b"v"), Op::Get(key.as_bytes())])
            .expect("pipeline");
    }
    let doc = c.trace_json().expect("TRACE opcode answers");
    let text = c.recorder_dump().expect("RECORDER opcode answers");
    drop(c);
    server.shutdown();
    trace::set_sampling(0, 0);

    let lock_ids: Vec<u64> = trace::parse_chrome_json(&doc)
        .iter()
        .filter(|e| matches!(e.kind, trace::SpanKind::Lock(_)))
        .map(|e| e.trace_id)
        .collect();
    assert!(
        !lock_ids.contains(&0),
        "TRACE holds lock events outside any sampled request"
    );
    assert!(!lock_ids.is_empty(), "TRACE holds no sampled lock event");
    for event in ["acquire", "release"] {
        assert!(
            text.lines().any(|line| {
                let mut words = line.split_whitespace();
                words.any(|w| w == "Hemlock(obs)") && words.any(|w| w == event)
            }),
            "no `Hemlock(obs) {event}` line in:\n{text}"
        );
    }
}
