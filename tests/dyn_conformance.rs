//! Conformance suite for the dynamic layer: every entry in the catalog
//! must behave identically through `DynMutex` as its static counterpart
//! does through `Mutex<T, L>`, and its advertised [`LockMeta`] must be
//! truthful.
//!
//! Checks, per exclusive entry (`View::Lock`):
//!
//! - **mutual exclusion** — concurrent increments and an overlap detector
//!   through the type-erased handle;
//! - **trylock semantics** — `meta.try_lock` entries must acquire when
//!   free, report `WouldBlock` when held, and really confer ownership;
//!   non-trylock algorithms (CLH, Anderson) must report `Unsupported`;
//! - **timeout semantics** — `meta.abortable` entries must return within
//!   the deadline bound, a timed-out waiter must never acquire the lock
//!   afterwards (no double grant), and the lock must stay acquirable;
//!   non-abortable algorithms must report `Unsupported` rather than a fake
//!   timeout. A proptest drives arbitrary mixes of blocking acquisitions,
//!   timed acquisitions, and aborts over every abortable key, checking the
//!   counter oracle and an overlap detector;
//! - **guard drop on panic** — unwinding out of a critical section must
//!   release the lock;
//! - **metadata fidelity** — every entry's meta equals its static type's
//!   `META` (via `for_each_lock!`), the `dyn` handle reports the same, and
//!   the declared body size matches the measured `size_of`.
//!
//! A parallel pass walks the **`rw.*` view** through `DynMutex`'s shared
//! mode: readers coexist, the writer excludes readers and writers alike,
//! no updates are lost under a mixed reader/writer schedule, and the
//! timed paths match the advertised capability. A third pass walks the
//! **`async.*` view** through `DynAsyncMutex`.
//!
//! [`LockMeta`]: hemlock_core::LockMeta

use hemlock_core::dynlock::TryLockError;
use hemlock_core::raw::RawLock;
use hemlock_core::DynMutex;
use hemlock_locks::catalog::{self, CatalogEntry, View};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

fn dyn_mutex_for(entry: &CatalogEntry) -> DynMutex<u64> {
    DynMutex::new((entry.make)(), 0)
}

#[test]
fn catalog_is_populated() {
    assert!(catalog::keys(View::Lock).len() >= 15);
}

#[test]
fn mutual_exclusion_through_dyn_mutex() {
    for entry in catalog::entries(View::Lock) {
        let m = dyn_mutex_for(entry);
        let in_cs = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = &m;
                let in_cs = &in_cs;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        let mut g = m.lock();
                        assert!(
                            !in_cs.swap(true, Ordering::AcqRel),
                            "{}: overlapping critical sections",
                            entry.key
                        );
                        *g += 1;
                        in_cs.store(false, Ordering::Release);
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 4_000, "{}", entry.key);
    }
}

#[test]
fn trylock_semantics_match_the_advertised_capability() {
    for entry in catalog::entries(View::Lock) {
        let m = dyn_mutex_for(entry);
        if entry.meta.try_lock {
            // Uncontended: must acquire and really confer ownership.
            {
                let mut g = m
                    .try_lock()
                    .unwrap_or_else(|e| panic!("{}: uncontended try_lock failed: {e}", entry.key));
                *g += 1;
            }
            // Held: must refuse without blocking.
            let g = m.lock();
            assert_eq!(
                m.try_lock().map(|_| ()).unwrap_err(),
                TryLockError::WouldBlock,
                "{}",
                entry.key
            );
            drop(g);
            // Released again: must succeed again.
            drop(m.try_lock().expect("released lock must be acquirable"));
        } else {
            assert_eq!(
                m.try_lock().map(|_| ()).unwrap_err(),
                TryLockError::Unsupported,
                "{}: non-trylock algorithm must report Unsupported",
                entry.key
            );
            // The blocking path must be unaffected.
            drop(m.lock());
        }
    }
}

#[test]
fn timeout_semantics_match_the_advertised_capability() {
    use std::time::{Duration, Instant};
    for entry in catalog::entries(View::Lock) {
        let m = dyn_mutex_for(entry);
        if entry.meta.abortable {
            // Uncontended: the timed path must acquire and confer
            // ownership.
            {
                let mut g = m
                    .try_lock_for(Duration::from_millis(10))
                    .unwrap_or_else(|e| panic!("{}: free timed acquire failed: {e}", entry.key));
                *g += 1;
            }
            // Held: a timed waiter must return TimedOut within bound — it
            // waits at least the timeout and (generously) far less than
            // forever.
            let g = m.lock();
            let t0 = Instant::now();
            assert_eq!(
                m.try_lock_for(Duration::from_millis(20))
                    .map(|_| ())
                    .unwrap_err(),
                TryLockError::TimedOut,
                "{}",
                entry.key
            );
            let waited = t0.elapsed();
            assert!(
                waited >= Duration::from_millis(20),
                "{}: {waited:?}",
                entry.key
            );
            assert!(
                waited < Duration::from_secs(10),
                "{}: timed waiter failed to return within bound ({waited:?})",
                entry.key
            );
            drop(g);
            // Released again: the aborted attempt left the lock reusable
            // for both the timed and the blocking path.
            drop(
                m.try_lock_for(Duration::from_millis(10))
                    .expect("released lock must be timed-acquirable"),
            );
            drop(m.lock());
        } else {
            assert_eq!(
                m.try_lock_for(Duration::from_millis(5))
                    .map(|_| ())
                    .unwrap_err(),
                TryLockError::Unsupported,
                "{}: non-abortable algorithm must report Unsupported, not a fake timeout",
                entry.key
            );
            drop(m.lock());
        }
    }
}

#[test]
fn aborted_waiters_never_acquire_and_never_double_grant() {
    use std::time::Duration;
    // The no-double-grant property: a holder keeps the lock across many
    // timed waiters' aborts; when it finally releases, exactly one new
    // acquisition succeeds, and the aborted waiters' attempts can never
    // surface as ownership later.
    for entry in catalog::abortable() {
        let m = dyn_mutex_for(entry);
        let g = m.lock();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let m = &m;
                s.spawn(move || {
                    // Every attempt must abort: the holder never releases
                    // while these run.
                    assert_eq!(
                        m.try_lock_for(Duration::from_millis(15))
                            .map(|_| ())
                            .unwrap_err(),
                        TryLockError::TimedOut,
                        "{}",
                        entry.key
                    );
                });
            }
        });
        // All waiters aborted and returned. Release; the critical section
        // must be re-enterable exactly once at a time.
        drop(g);
        let g2 = m
            .try_lock_for(Duration::from_millis(10))
            .unwrap_or_else(|e| panic!("{}: lock unusable after aborts: {e}", entry.key));
        // While g2 is held, nothing an aborted waiter left behind may make
        // a second acquisition succeed.
        assert_eq!(
            m.try_lock().map(|_| ()).unwrap_err(),
            TryLockError::WouldBlock,
            "{}: double grant after aborts",
            entry.key
        );
        drop(g2);
    }
}

#[test]
fn guard_drop_releases_on_panic() {
    for entry in catalog::entries(View::Lock) {
        let m = dyn_mutex_for(entry);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g = 7;
            panic!("inside critical section");
        }));
        assert!(r.is_err());
        // The guard released during unwinding; the lock is usable.
        assert_eq!(*m.lock(), 7, "{}", entry.key);
    }
}

#[test]
fn dyn_handles_report_the_entry_meta() {
    for entry in catalog::entries(View::Lock) {
        let lock = (entry.make)();
        assert_eq!(lock.meta(), entry.meta, "{}", entry.key);
        let m = dyn_mutex_for(entry);
        assert_eq!(m.meta(), entry.meta, "{}", entry.key);
    }
}

// ---------------------------------------------------------------- RW pass

#[test]
fn readers_coexist_through_dyn_rw_mutex() {
    for entry in catalog::entries(View::Rw) {
        let m = dyn_mutex_for(entry);
        *m.lock() = 9;
        let held = m.read();
        // A second reader on another thread must be admitted while the
        // main thread's guard is still alive — completion proves sharing.
        std::thread::scope(|s| {
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    assert_eq!(*m.read(), 9, "{}", entry.key);
                });
            }
        });
        assert_eq!(*held, 9, "{}", entry.key);
    }
}

#[test]
fn writer_excludes_all_through_dyn_rw_mutex() {
    for entry in catalog::entries(View::Rw) {
        let m = dyn_mutex_for(entry);
        let writer_in = AtomicBool::new(false);
        let started = AtomicUsize::new(0);
        let mut g = m.lock();
        std::thread::scope(|s| {
            let spawn_probe = |as_reader: bool| {
                let m = &m;
                let writer_in = &writer_in;
                let started = &started;
                s.spawn(move || {
                    started.fetch_add(1, Ordering::AcqRel);
                    if as_reader {
                        let g = m.read();
                        assert!(!writer_in.load(Ordering::Acquire), "reader/writer overlap");
                        drop(g);
                    } else {
                        let g = m.lock();
                        assert!(!writer_in.load(Ordering::Acquire), "writer/writer overlap");
                        drop(g);
                    }
                });
            };
            spawn_probe(true);
            spawn_probe(false);
            while started.load(Ordering::Acquire) < 2 {
                std::hint::spin_loop();
            }
            // Both probes are launched and must now be blocked on us.
            writer_in.store(true, Ordering::Release);
            std::thread::sleep(std::time::Duration::from_millis(5));
            *g = 1;
            writer_in.store(false, Ordering::Release);
            drop(g);
        });
        assert_eq!(*m.read(), 1, "{}", entry.key);
    }
}

#[test]
fn no_lost_updates_under_mixed_rw_traffic() {
    for entry in catalog::entries(View::Rw) {
        let m = dyn_mutex_for(entry);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                });
            }
            for _ in 0..2 {
                let m = &m;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        let g = m.read();
                        let a = *g;
                        std::hint::spin_loop();
                        assert_eq!(a, *g, "{}: value moved under a read hold", entry.key);
                    }
                });
            }
        });
        assert_eq!(m.into_inner(), 2_000, "{}", entry.key);
    }
}

#[test]
fn rw_read_guard_and_write_guard_release_on_panic() {
    for entry in catalog::entries(View::Rw) {
        let m = dyn_mutex_for(entry);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut g = m.lock();
            *g = 7;
            panic!("inside write critical section");
        }));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let g = m.read();
            assert_eq!(*g, 7, "{}", entry.key);
            panic!("inside read critical section");
        }));
        assert!(r.is_err());
        // Both guards released during unwinding: a writer gets in again.
        *m.lock() += 1;
        assert_eq!(*m.read(), 8, "{}", entry.key);
    }
}

#[test]
fn rw_timed_semantics_match_the_advertised_capability() {
    use std::time::Duration;
    for entry in catalog::entries(View::Rw) {
        let m = dyn_mutex_for(entry);
        if entry.meta.abortable {
            // Free: both timed modes acquire.
            *m.try_lock_for(Duration::from_millis(10))
                .unwrap_or_else(|e| panic!("{}: free timed write failed: {e}", entry.key)) = 3;
            {
                // Timed readers coexist with a blocking reader.
                let held = m.read();
                let r = m
                    .try_read_for(Duration::from_millis(20))
                    .unwrap_or_else(|e| panic!("{}: timed reader not admitted: {e}", entry.key));
                assert_eq!((*held, *r), (3, 3), "{}", entry.key);
                // A timed writer must give up behind the readers…
                assert_eq!(
                    m.try_lock_for(Duration::from_millis(15))
                        .map(|_| ())
                        .unwrap_err(),
                    TryLockError::TimedOut,
                    "{}",
                    entry.key
                );
            }
            // …and its abort must leave the lock fully usable: writer in,
            // then a timed reader times out behind it, then both recover.
            let w = m
                .try_lock_for(Duration::from_millis(20))
                .expect("free after aborts");
            assert_eq!(
                m.try_read_for(Duration::from_millis(10))
                    .map(|_| ())
                    .unwrap_err(),
                TryLockError::TimedOut,
                "{}",
                entry.key
            );
            drop(w);
            assert_eq!(*m.try_read_for(Duration::from_millis(10)).expect("free"), 3);
        } else {
            assert_eq!(
                m.try_read_for(Duration::from_millis(5))
                    .map(|_| ())
                    .unwrap_err(),
                TryLockError::Unsupported,
                "{}",
                entry.key
            );
            assert_eq!(
                m.try_lock_for(Duration::from_millis(5))
                    .map(|_| ())
                    .unwrap_err(),
                TryLockError::Unsupported,
                "{}",
                entry.key
            );
            // The blocking paths are unaffected.
            *m.lock() += 1;
            drop(m.read());
        }
    }
}

#[test]
fn dyn_rw_handles_report_the_entry_meta() {
    for entry in catalog::entries(View::Rw) {
        let lock = (entry.make)();
        assert_eq!(lock.meta(), entry.meta, "{}", entry.key);
        let m = dyn_mutex_for(entry);
        assert_eq!(m.meta(), entry.meta, "{}", entry.key);
        assert!(m.meta().rw, "{}", entry.key);
    }
}

// ------------------------------------------------------- abort proptests

mod abort_mix {
    //! Proptest: arbitrary per-thread mixes of blocking acquisitions and
    //! timed acquisitions (many of which abort under contention) over
    //! **every abortable catalog key**. Invariants, per schedule:
    //!
    //! - the protected counter equals the number of acquisitions that
    //!   actually succeeded (aborted waiters never acquire — a timed-out
    //!   attempt that secretly took the lock would inflate the count, and
    //!   one that corrupted the queue would deadlock or tear it);
    //! - critical sections never overlap (mutual exclusion survives
    //!   aborts);
    //! - after the schedule the lock is still acquirable by both paths
    //!   (aborts leave the lock reusable).

    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Unconditional acquisition: always succeeds eventually.
        Block,
        /// Timed acquisition with a tiny budget (microseconds): under
        /// contention a large fraction abort, which is the point.
        Timed(u16),
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        // The vendored proptest shim has no `Just`; a 1-value range stands
        // in for the constant arm, as in tests/mutual_exclusion.rs.
        prop_oneof![
            (0u8..1).prop_map(|_| Op::Block),
            (1u16..200).prop_map(Op::Timed), // 1..200 us budgets
        ]
    }

    fn run_mix(entry: &'static CatalogEntry, ops: &[Vec<Op>]) {
        let m = dyn_mutex_for(entry);
        let in_cs = AtomicBool::new(false);
        let successes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for thread_ops in ops {
                let m = &m;
                let in_cs = &in_cs;
                let successes = &successes;
                s.spawn(move || {
                    for &op in thread_ops {
                        let guard = match op {
                            Op::Block => Some(m.lock()),
                            Op::Timed(us) => {
                                match m.try_lock_for(Duration::from_micros(us as u64)) {
                                    Ok(g) => Some(g),
                                    Err(TryLockError::TimedOut) => None,
                                    Err(e) => panic!("{}: unexpected {e}", entry.key),
                                }
                            }
                        };
                        if let Some(mut g) = guard {
                            assert!(
                                !in_cs.swap(true, Ordering::AcqRel),
                                "{}: overlapping critical sections",
                                entry.key
                            );
                            *g += 1;
                            successes.fetch_add(1, Ordering::Relaxed);
                            in_cs.store(false, Ordering::Release);
                        }
                    }
                });
            }
        });
        // Oracle: every success incremented exactly once; aborted waiters
        // contributed nothing.
        assert_eq!(
            *m.lock(),
            successes.load(Ordering::Relaxed),
            "{}: counter diverged from successful acquisitions",
            entry.key
        );
        // The lock outlives the abort storm: both paths still acquire.
        drop(
            m.try_lock_for(Duration::from_millis(20))
                .expect("timed path reusable"),
        );
        drop(m.lock());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn acquire_abort_release_mixes_preserve_every_invariant(
            ops in proptest::collection::vec(
                proptest::collection::vec(op_strategy(), 0..24), 1..4)
        ) {
            for entry in catalog::abortable() {
                run_mix(entry, &ops);
            }
        }
    }
}

// ---------------------------------------------------------- async pass

mod async_pass {
    //! Conformance for the catalog's **`async.*` view** through
    //! `DynAsyncMutex`: mutual exclusion under
    //! task contention, truthful metadata, and — the property the
    //! subsystem is built around — **cancellation is an abort**: a
    //! dropped pending lock future never acquires afterwards and leaves
    //! no queue state, while every surviving waiter still gets its wakeup.

    use super::*;
    use hemlock_async::catalog::dyn_async_mutex;
    use hemlock_async::DynAsyncMutex;
    use hemlock_harness::executor::{block_on, TaskPool};
    use proptest::prelude::*;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::task::{Context, Poll};

    fn dyn_async_mutex_for(entry: &CatalogEntry) -> DynAsyncMutex<u64> {
        dyn_async_mutex(entry.key, 0).expect("async entries build async handles")
    }

    #[test]
    fn exclusive_catalog_asyncable_bit_is_truthful() {
        // asyncable == abortable everywhere, and the async view holds
        // exactly the asyncable rows.
        for entry in catalog::entries(View::Lock) {
            assert_eq!(entry.meta.asyncable, entry.meta.abortable, "{}", entry.key);
            assert_eq!(
                catalog::find(View::Async, &format!("async.{}", entry.key)).is_some(),
                entry.meta.asyncable,
                "{}",
                entry.key
            );
        }
    }

    #[test]
    fn mutual_exclusion_through_dyn_async_mutex() {
        for entry in catalog::entries(View::Async) {
            let pool = TaskPool::new(3);
            let m = Arc::new(dyn_async_mutex_for(entry));
            let in_cs = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let m = Arc::clone(&m);
                    let in_cs = Arc::clone(&in_cs);
                    let key = entry.key;
                    pool.spawn(async move {
                        for _ in 0..300 {
                            let mut g = m.lock().await;
                            assert!(
                                !in_cs.swap(true, Ordering::AcqRel),
                                "{key}: overlapping critical sections"
                            );
                            *g += 1;
                            in_cs.store(false, Ordering::Release);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            assert_eq!(block_on(async { *m.lock().await }), 1_800, "{}", entry.key);
            assert!(m.raw().is_idle(), "{}", entry.key);
        }
    }

    #[test]
    fn dyn_async_handles_report_the_entry_meta() {
        for entry in catalog::entries(View::Async) {
            let m = dyn_async_mutex_for(entry);
            assert_eq!(m.meta(), entry.meta, "{}", entry.key);
        }
    }

    #[test]
    fn cancelled_parked_futures_never_acquire_and_release_flows_on() {
        for entry in catalog::entries(View::Async) {
            let m = dyn_async_mutex_for(entry);
            let held = m.try_lock().expect("free");
            // Park three futures, then cancel the middle one.
            let noop = noop_waker();
            let mut cx = Context::from_waker(&noop);
            let mut f1 = Box::pin(m.lock());
            let mut f2 = Box::pin(m.lock());
            let mut f3 = Box::pin(m.lock());
            assert!(f1.as_mut().poll(&mut cx).is_pending());
            assert!(f2.as_mut().poll(&mut cx).is_pending());
            assert!(f3.as_mut().poll(&mut cx).is_pending());
            assert_eq!(m.waiters(), 3, "{}", entry.key);
            drop(f2);
            assert_eq!(m.waiters(), 2, "{}: cancel must unlink", entry.key);
            drop(held);
            // FIFO hand-off skips the cancelled node: f1 then f3.
            let g1 = match f1.as_mut().poll(&mut cx) {
                Poll::Ready(g) => g,
                Poll::Pending => panic!("{}: head waiter not granted", entry.key),
            };
            assert!(f3.as_mut().poll(&mut cx).is_pending(), "{}", entry.key);
            drop(g1);
            let g3 = match f3.as_mut().poll(&mut cx) {
                Poll::Ready(g) => g,
                Poll::Pending => panic!("{}: next waiter not granted", entry.key),
            };
            // Nothing the cancelled future left behind may double-grant.
            assert!(m.try_lock().is_none(), "{}: double grant", entry.key);
            drop(g3);
            assert!(m.raw().is_idle(), "{}", entry.key);
        }
    }

    fn noop_waker() -> std::task::Waker {
        struct Noop;
        impl std::task::Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        std::task::Waker::from(Arc::new(Noop))
    }

    /// Polls the wrapped acquisition once; if it parks, **drops it on the
    /// spot** — a cancellation of a genuinely-parked future, the racy
    /// moment the abort contract must survive.
    struct CancelIfParked<F>(Option<Pin<Box<F>>>);

    impl<F: Future> Future for CancelIfParked<F> {
        type Output = Option<F::Output>;
        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            let mut inner = self.0.take().expect("polled after completion");
            match inner.as_mut().poll(cx) {
                Poll::Ready(out) => Poll::Ready(Some(out)),
                Poll::Pending => {
                    drop(inner); // cancel the parked acquisition
                    Poll::Ready(None)
                }
            }
        }
    }

    fn run_cancel_mix(entry: &'static CatalogEntry, ops: &[Vec<bool>]) {
        let pool = TaskPool::new(3);
        let m = Arc::new(dyn_async_mutex_for(entry));
        let in_cs = Arc::new(AtomicBool::new(false));
        let successes = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = ops
            .iter()
            .map(|task_ops| {
                let m = Arc::clone(&m);
                let in_cs = Arc::clone(&in_cs);
                let successes = Arc::clone(&successes);
                let task_ops = task_ops.clone();
                let key = entry.key;
                pool.spawn(async move {
                    for cancel_style in task_ops {
                        let guard = if cancel_style {
                            // Acquire-or-cancel: parks under contention and
                            // is immediately dropped — the abort path.
                            CancelIfParked(Some(Box::pin(m.lock()))).await
                        } else {
                            Some(m.lock().await)
                        };
                        if let Some(mut g) = guard {
                            assert!(
                                !in_cs.swap(true, Ordering::AcqRel),
                                "{key}: overlapping critical sections"
                            );
                            *g += 1;
                            successes.fetch_add(1, Ordering::Relaxed);
                            in_cs.store(false, Ordering::Release);
                        }
                    }
                })
            })
            .collect();
        // Every task completing — none stranded on a wait that a
        // cancellation should have unblocked — IS the no-lost-wakeup
        // check: a leaked queue head would hang a `lock().await` forever.
        for h in handles {
            h.join();
        }
        // Oracle: aborted attempts contributed nothing.
        assert_eq!(
            block_on(async { *m.lock().await }),
            successes.load(Ordering::Relaxed),
            "{}: counter diverged from successful acquisitions",
            entry.key
        );
        // No queue state left behind, and the lock is fully reusable.
        assert_eq!(m.waiters(), 0, "{}", entry.key);
        assert!(m.raw().is_idle(), "{}", entry.key);
        let g = m.try_lock().expect("reusable after the abort storm");
        assert!(m.try_lock().is_none(), "{}: double grant", entry.key);
        drop(g);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        #[test]
        fn random_future_drops_preserve_every_invariant(
            ops in proptest::collection::vec(
                proptest::collection::vec(proptest::any::<bool>(), 0..24), 1..5)
        ) {
            for entry in catalog::entries(View::Async) {
                run_cancel_mix(entry, &ops);
            }
        }
    }
}

/// Checks one entry against its static type: the meta is the type's
/// `META` but for the display name, the declared body size is the measured
/// body size, and every alias resolves to the entry.
fn check_static<L: RawLock>(view: View, key: &str, aliases: &[&str]) -> &'static CatalogEntry {
    let entry = catalog::find(view, key).unwrap_or_else(|| panic!("catalog lost key {key}"));
    let mut expected = L::META;
    expected.name = entry.meta.name;
    assert_eq!(entry.meta, expected, "{key}");
    // Declared body words = measured size, rounded up to whole words
    // (TAS/TTAS bodies are a single byte).
    assert_eq!(
        entry.meta.lock_words,
        core::mem::size_of::<L>().div_ceil(core::mem::size_of::<usize>()),
        "{key}: LockMeta.lock_words disagrees with size_of"
    );
    for alias in aliases {
        assert_eq!(
            catalog::find(view, alias).map(|e| e.key),
            Some(entry.key),
            "alias {alias} must resolve to {key}"
        );
    }
    entry
}

macro_rules! static_meta_checks {
    ($((
        $key:literal, [$($alias:literal),*], $ty:ty, $cap:ident,
        $rw:ty, [$($rw_alias:literal),*], [$($async_alias:literal),*]
    )),+ $(,)?) => {
        /// The catalog's meta is byte-for-byte the static type's `META`.
        #[test]
        fn catalog_meta_matches_static_counterparts() {
            $(
                let entry = check_static::<$ty>(View::Lock, $key, &[$($alias),*]);
                assert_eq!(entry.meta, <$ty as RawLock>::META, "{}", $key);
            )+
        }

        /// An `rw.` twin reports its type's `META`, renamed `RW-<name>`
        /// when the type inherits its gate's name.
        #[test]
        fn rw_catalog_meta_matches_static_counterparts() {
            $(
                let entry = check_static::<$rw>(View::Rw, concat!("rw.", $key), &[$($rw_alias),*]);
                let (gate, twin) = (<$ty as RawLock>::META.name, <$rw as RawLock>::META.name);
                if twin == gate {
                    assert_eq!(entry.meta.name, format!("RW-{gate}"), "{}", $key);
                } else {
                    assert_eq!(entry.meta.name, twin, "{}", $key);
                }
            )+
        }

        /// An `async.` entry reports its row's `META` unchanged.
        #[test]
        fn async_catalog_meta_matches_static_counterparts() {
            $(
                if <$ty as RawLock>::META.asyncable {
                    let entry = check_static::<$ty>(
                        View::Async,
                        concat!("async.", $key),
                        &[$($async_alias),*],
                    );
                    assert_eq!(entry.meta, <$ty as RawLock>::META, "{}", $key);
                }
            )+
        }
    };
}
hemlock_locks::for_each_lock!(static_meta_checks);
