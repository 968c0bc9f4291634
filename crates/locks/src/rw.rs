//! Compact reader-writer locking for the Hemlock workspace. Read-heavy
//! traffic is the dominant production workload, yet an exclusive lock
//! serializes readers behind a single holder; this module adds a *shared*
//! (reader) mode to the whole stack while keeping the paper's Table 1
//! space story — small lock bodies, constant-time arrival:
//!
//! - [`HemlockRw`] — the native reader-writer lock. The writer path rides
//!   the existing Hemlock grant protocol (one-word tail, FIFO handover,
//!   per-thread Grant word); readers are tracked by a compact *distributed
//!   read-indicator*: per-cache-line striped counters, one stripe per
//!   arriving thread modulo the stripe count, so concurrent readers touch
//!   disjoint lines and arrival stays one uncontended atomic in the common
//!   case. Writer-preference: an arriving writer turns incoming readers
//!   away, then drains the indicator.
//! - [`RwFromRaw<L>`] — a generic adapter giving *any*
//!   [`RawLock`](hemlock_core::RawLock) from the catalog a reader-writer
//!   variant: the underlying lock becomes an admission gate that readers
//!   pass through (incrementing a shared read count) and writers hold for
//!   their whole critical section, draining the readers first. With a FIFO
//!   gate the admission is *phase-fair-ish*: readers that arrive while a
//!   writer waits queue behind it, then enter together as a batch.
//! - The catalog gives every row an `rw.*` twin: `"rw.hemlock"` is the
//!   native [`HemlockRw`], every other key (`"rw.mcs"`, `"rw.clh"`, …) is
//!   [`RwFromRaw`] over that row's lock. See
//!   [`catalog::View::Rw`](crate::catalog::View::Rw).
//!
//! Both locks implement [`RawRwLock`](hemlock_core::RawRwLock), so the
//! write path doubles as a plain [`RawLock`](hemlock_core::RawLock) —
//! every RW lock still works behind `Mutex<T, L>`, `ShardedTable`, and the
//! exclusive benches — while `read_lock`/`read_unlock` admit concurrent
//! readers. Neither mode is reentrant: a thread holding the lock in any
//! mode must not acquire it again (a waiting writer would deadlock a
//! reacquiring reader).
//!
//! ```
//! use hemlock_core::Mutex;
//! use hemlock_locks::rw::HemlockRw;
//!
//! let m: Mutex<Vec<u32>, HemlockRw> = Mutex::new(vec![1, 2, 3]);
//! {
//!     let a = m.read();
//!     let b = m.read(); // readers coexist
//!     assert_eq!(a.len() + b.len(), 6);
//! }
//! m.lock().push(4); // the write path is the exclusive path
//! assert_eq!(m.read().len(), 4);
//! ```

pub use crate::from_raw::RwFromRaw;
pub use crate::hemlock_rw::{HemlockRw, DEFAULT_STRIPES};
