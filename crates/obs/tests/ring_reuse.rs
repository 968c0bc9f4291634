//! Trace rings are bounded by live threads, not by threads ever run: a
//! thread that registers takes over the ring of one that has exited.
//!
//! Its own binary: the ring registry is process-wide, and the test counts
//! every ring in it.

use hemlock_core::raw::RawLock;
use hemlock_obs::trace::{self, SpanKind};
use hemlock_obs::ObservedHemlock;
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn sequential_threads_reuse_one_ring() {
    const THREADS: usize = 64;
    let lock = Arc::new(ObservedHemlock::default());
    for i in 0..THREADS {
        let lock = Arc::clone(&lock);
        // `join` returns after the thread's thread-locals are destroyed,
        // so its ring is free before the next thread registers.
        std::thread::Builder::new()
            .name(format!("reuse-{i}"))
            .spawn(move || {
                lock.lock();
                // SAFETY: acquired just above on this thread.
                unsafe { lock.unlock() };
            })
            .expect("spawn")
            .join()
            .expect("thread ran");
    }
    let events = trace::export_events();
    let tracks: BTreeSet<&str> = events.iter().map(|e| e.track.as_str()).collect();
    assert!(tracks.len() <= 2, "{} tracks: {tracks:?}", tracks.len());
    // A reused ring keeps its records and takes the new owner's name.
    let locks = events
        .iter()
        .filter(|e| matches!(e.kind, SpanKind::Lock(_)))
        .count();
    assert_eq!(locks, 2 * THREADS, "one acquire and one release each");
    let last = format!("reuse-{}#", THREADS - 1);
    assert!(tracks.iter().any(|t| t.starts_with(&last)), "{tracks:?}");
}
