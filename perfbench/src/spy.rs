//! `minikv` and `async` layer timing from outside: [`SpyKv`] wraps the
//! store the server is given and times each `apply_batch_async` call
//! from its first poll to its result, counting the polls that returned
//! `Pending` (the task parked).

use crate::hist::{AtomicHist, Hist};
use hemlock_minikv::{AsyncKv, BoxKvFuture, DbStats, KvOp, KvResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

/// Counters of the calls made while recording was on.
#[derive(Default)]
pub struct CallStats {
    recording: AtomicBool,
    calls: AtomicU64,
    ops: AtomicU64,
    pending: AtomicU64,
    call_ns: AtomicHist,
}

pub struct CallSummary {
    pub calls: u64,
    pub ops: u64,
    pub pending: u64,
    pub call_ns: Hist,
}

impl CallStats {
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    pub fn summary(&self) -> CallSummary {
        CallSummary {
            calls: self.calls.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            pending: self.pending.load(Ordering::Relaxed),
            call_ns: self.call_ns.snapshot(),
        }
    }
}

/// An [`AsyncKv`] that forwards to `inner` and times its batch calls.
pub struct SpyKv {
    inner: Arc<dyn AsyncKv>,
    stats: Arc<CallStats>,
}

impl SpyKv {
    pub fn new(inner: Arc<dyn AsyncKv>, stats: Arc<CallStats>) -> Self {
        Self { inner, stats }
    }
}

impl AsyncKv for SpyKv {
    fn get_async<'a>(&'a self, key: &'a [u8]) -> BoxKvFuture<'a, Option<Vec<u8>>> {
        self.inner.get_async(key)
    }

    fn put_async<'a>(&'a self, key: &'a [u8], value: &'a [u8]) -> BoxKvFuture<'a, ()> {
        self.inner.put_async(key, value)
    }

    fn delete_async<'a>(&'a self, key: &'a [u8]) -> BoxKvFuture<'a, ()> {
        self.inner.delete_async(key)
    }

    fn apply_batch_async<'a>(&'a self, ops: &'a [KvOp]) -> BoxKvFuture<'a, Vec<KvResult>> {
        let mut call = self.inner.apply_batch_async(ops);
        let stats = &*self.stats;
        let mut started: Option<Instant> = None;
        let mut pending = 0u64;
        Box::pin(std::future::poll_fn(move |cx| {
            let t0 = *started.get_or_insert_with(Instant::now);
            match call.as_mut().poll(cx) {
                Poll::Pending => {
                    pending += 1;
                    Poll::Pending
                }
                Poll::Ready(out) => {
                    if stats.recording.load(Ordering::Relaxed) {
                        stats.calls.fetch_add(1, Ordering::Relaxed);
                        stats.ops.fetch_add(ops.len() as u64, Ordering::Relaxed);
                        stats.pending.fetch_add(pending, Ordering::Relaxed);
                        stats.call_ns.record(t0.elapsed().as_nanos() as u64);
                    }
                    Poll::Ready(out)
                }
            }
        }))
    }

    fn stats(&self) -> &DbStats {
        self.inner.stats()
    }

    fn lock_name(&self) -> &'static str {
        self.inner.lock_name()
    }
}
