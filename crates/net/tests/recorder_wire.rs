//! The `RECORDER` opcode carries real lock events: a server on an
//! observed lock takes one PUT, and the dump it answers names the lock
//! with the acquire and release that PUT caused.
//!
//! Kept in its own binary: `trace_e2e.rs` resets the rings from a test
//! that runs concurrently with its other tests.

use hemlock_harness::executor::TaskPool;
use hemlock_minikv::{Db, Options};
use hemlock_net::{spawn_server, Client, Op};
use hemlock_obs::ObservedHemlock;
use std::sync::Arc;

#[test]
fn recorder_dump_names_the_observed_lock_events() {
    let pool = Arc::new(TaskPool::new(1));
    let kv = Arc::new(Db::<ObservedHemlock>::new(Options::default())).into_async_kv();
    let server = spawn_server(&pool, kv, "127.0.0.1:0".parse().unwrap()).expect("spawn server");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    c.pipeline(&[Op::Put(b"k", b"v")]).expect("pipeline");
    let text = c.recorder_dump().expect("RECORDER opcode answers");
    drop(c);
    server.shutdown();

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
