//! End-to-end tracing integration: a real in-process server on a real
//! socket, sampling every request, with the trace pulled back over the
//! `TRACE` opcode and checked for structural integrity — the same path
//! `loadgen --trace` drives.

use hemlock_harness::executor::TaskPool;
use hemlock_minikv::{Db, Options};
use hemlock_net::{spawn_server, Client, Op};
use hemlock_obs::trace;
use std::sync::Arc;

fn run_traced_traffic() -> Vec<trace::ExportEvent> {
    let pool = Arc::new(TaskPool::new(2));
    let kv =
        Arc::new(Db::<hemlock_core::hemlock::Hemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server(&pool, kv, "127.0.0.1:0".parse().unwrap()).expect("spawn server");

    let mut c = Client::connect(server.local_addr()).expect("connect");
    for round in 0..8u32 {
        let key = format!("k{round}");
        let resps = c
            .pipeline(&[Op::Put(key.as_bytes(), b"v"), Op::Get(key.as_bytes())])
            .expect("pipeline");
        assert_eq!(resps.len(), 2);
    }
    let doc = c.trace_json().expect("TRACE opcode answers");
    drop(c);
    server.shutdown();

    let events = trace::parse_chrome_json(&doc);
    let errs = trace::check_well_formed(&events);
    assert!(errs.is_empty(), "trace integrity: {errs:?}");
    events
}

#[test]
fn traced_requests_export_and_decompose_end_to_end() {
    // Sampling state is process-global; this is the only test in this
    // binary, so it owns the flag for its whole run.
    trace::set_sampling(1, 0);
    trace::reset_rings();

    let events = run_traced_traffic();
    let decomps = trace::decompose_requests(&events);
    assert!(!decomps.is_empty(), "sampled requests decompose");
    for d in &decomps {
        assert!(d.total_ns > 0);
        // The components never claim more than the request's RTT plus
        // the slack the decomposition contract allows for overlap.
        let claimed = d.decode_ns + d.queue_ns + d.lock_wait_ns + d.hold_ns + d.flush_ns;
        assert!(
            claimed <= d.total_ns * 2,
            "components wildly exceed RTT: {d:?}"
        );
    }
    // The server threads recorded decode and request spans.
    let names: std::collections::BTreeSet<&str> = events.iter().map(|e| e.name.as_str()).collect();
    assert!(names.contains("net.request"), "have: {names:?}");
    assert!(names.contains("net.decode"), "have: {names:?}");
    trace::reset_rings();
    trace::set_sampling(0, 0);
}

#[test]
fn recorder_dump_answers_over_the_wire() {
    let pool = Arc::new(TaskPool::new(1));
    let kv =
        Arc::new(Db::<hemlock_core::hemlock::Hemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server(&pool, kv, "127.0.0.1:0".parse().unwrap()).expect("spawn server");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let _ = c.pipeline(&[Op::Put(b"k", b"v")]).expect("pipeline");
    // The dump may be empty (no timeout fired), but the opcode must
    // answer with the rendered-text shape rather than an error.
    let text = c.recorder_dump().expect("RECORDER opcode answers");
    assert!(text.is_ascii() || !text.is_empty());
    drop(c);
    server.shutdown();
}
