//! # hemlock-async
//!
//! The **waker-parking asynchronous lock subsystem**: futures-shaped
//! locking for the Hemlock workspace, from a compact waiter queue up to
//! the `async.*` catalog.
//!
//! ## Why this exists
//!
//! The paper's compact spin protocol is excellent *under* the lock — one
//! SWAP to arrive, fere-local spinning, one word per lock — but a service
//! with millions of pending acquisitions cannot park an OS thread per
//! waiter. This crate splits the two regimes:
//!
//! - **short sections spin**: every async lock's internal state is guarded
//!   by a compact lock from the *asyncable* catalog subset
//!   ([`LockMeta::asyncable`](hemlock_core::LockMeta), equal to the
//!   abortable subset), held only for a handful of instructions and never
//!   across a suspension point;
//! - **long waits park a `Waker`**: a contended acquisition registers its
//!   task's waker in a FIFO queue and suspends the *task*, not the thread.
//!
//! ## Cancellation is an abort
//!
//! Dropping a pending lock future withdraws it from the queue — the same
//! never-acquire-after-abort contract the abortable (timed) acquisition
//! machinery established (`LockMeta::abortable`; see
//! `hemlock_core::raw`). A dropped future provably never acquires later
//! and leaves no queue state behind; a grant that races a cancellation is
//! passed on to the next waiter, so the lock is never stranded. This is
//! why the `async.*` catalog is exactly the abortable subset: algorithms
//! whose waiters cannot withdraw (CLH, Anderson) get no async entry.
//!
//! ## Layout
//!
//! - [`queue`] — [`WakerQueue`]: the guarded FIFO waker queue with direct
//!   (barging-free) hand-off and cancellation;
//! - [`mutex`] / [`rwlock`] — [`AsyncMutex`] and [`AsyncRwLock`], the
//!   typed guard APIs (guards are `Send`: release is thread-agnostic);
//! - [`dynasync`] — the object-safe [`DynAsyncLock`] /
//!   [`DynAsyncMutex`] runtime-selection layer;
//! - [`catalog`] — the `async.*` view of `hemlock_locks::catalog`, plus
//!   the [`DynAsyncLock`] factories built through its dispatcher;
//! - [`wakerset`] — [`WakerSet`], the notify-on-release eventcount that
//!   lets *synchronous* locks (the sharded table's shards, minikv's
//!   central mutex) serve asynchronous waiters without lost wakeups
//!   (defined in `hemlock_core::wakerset`, so those crates need no
//!   dependency on this one; re-exported here for discoverability).
//!
//! ## Quick start
//!
//! ```
//! use hemlock_async::AsyncMutex;
//! use hemlock_harness::executor::{block_on, TaskPool};
//! use std::sync::Arc;
//!
//! let pool = TaskPool::new(2);
//! let m: Arc<AsyncMutex<u64>> = Arc::new(AsyncMutex::new(0));
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let m = Arc::clone(&m);
//!         pool.spawn(async move {
//!             for _ in 0..100 {
//!                 *m.lock().await += 1; // parks the task, not the thread
//!             }
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join();
//! }
//! assert_eq!(block_on(async { *m.lock().await }), 400);
//! ```

#![deny(missing_docs)]

pub mod catalog;
pub mod dynasync;
pub mod mutex;
pub mod queue;
pub mod rwlock;

/// The sync↔async bridge: re-exported from [`hemlock_core::wakerset`],
/// where it lives so that `hemlock-shard` and `hemlock-minikv` can park
/// async waiters without depending on this crate.
pub mod wakerset {
    pub use hemlock_core::wakerset::WakerSet;
}

pub use dynasync::{DynAsyncLock, DynAsyncMutex, DynAsyncMutexGuard};
pub use mutex::{AsyncLock, AsyncMutex, AsyncMutexGuard};
pub use queue::{WaitNode, WakerQueue};
pub use rwlock::{AsyncRead, AsyncRwLock, AsyncRwReadGuard, AsyncRwWriteGuard, AsyncWrite};
pub use wakerset::WakerSet;

#[cfg(test)]
mod proptests {
    //! Schedule oracle under task contention: arbitrary per-task op counts
    //! applied through `AsyncMutex` on the pool must sum exactly.

    use crate::AsyncMutex;
    use hemlock_harness::executor::TaskPool;
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn task_schedules_match_sequential_sum(
            ops in proptest::collection::vec(
                proptest::collection::vec(-50i64..50, 0..32), 1..6)
        ) {
            let pool = TaskPool::new(3);
            let m: Arc<AsyncMutex<i64>> = Arc::new(AsyncMutex::new(0));
            let expected: i64 = ops.iter().flatten().sum();
            let handles: Vec<_> = ops
                .into_iter()
                .map(|task_ops| {
                    let m = Arc::clone(&m);
                    pool.spawn(async move {
                        for d in task_ops {
                            *m.lock().await += d;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            prop_assert_eq!(Arc::try_unwrap(m).expect("all tasks joined").into_inner(), expected);
        }
    }
}
