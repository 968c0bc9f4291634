//! The async view of the lock catalog: `async.*` keys.
//!
//! `hemlock_locks::catalog` is the only lock registry. Its [`View::Async`]
//! holds the rows whose [`LockMeta::asyncable`](hemlock_core::LockMeta)
//! bit is set — in practice the abortable subset — under their key with an
//! `async.` prefix: `"async.hemlock"`, `"async.mcs"`, `"async.ticket"`, ….
//! This module re-exports that catalog, so crates that reach it only
//! through this one (`hemlock-net`'s `kvserver`) resolve names the same
//! way, and adds the [`DynAsyncLock`] factories: a waker queue guarded by
//! the entry's lock, built through [`with_timed_lock_type`].
//!
//! CLH and Anderson have **no** `async.*` entry, for the same reason they
//! have no timed path: a waiter that cannot withdraw cannot back a
//! cancel-safe future, and a guard whose unlock is a commitment has no
//! business under a queue that must stay cheap to abort.

pub use hemlock_locks::catalog::*;

use crate::dynasync::{boxed_async, DynAsyncLock, DynAsyncMutex};
use hemlock_core::raw::RawTryLock;

/// Builds a runtime async-lock handle for the `async.*` name `name`.
pub fn dyn_async_lock(name: &str) -> Result<Box<dyn DynAsyncLock>, String> {
    struct Queue;
    impl TimedLockVisitor for Queue {
        type Output = Box<dyn DynAsyncLock>;
        fn visit<L: RawTryLock + 'static>(self, _: &'static CatalogEntry) -> Self::Output {
            boxed_async::<L>()
        }
    }
    let entry = lookup(View::Async, name)?;
    Ok(with_timed_lock_type(entry, Queue).expect("async entries are trylock-capable"))
}

/// Builds a [`DynAsyncMutex`] protecting `value` with the algorithm
/// `name`.
pub fn dyn_async_mutex<T>(name: &str, value: T) -> Result<DynAsyncMutex<T>, String> {
    Ok(DynAsyncMutex::new(dyn_async_lock(name)?, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_harness::executor::block_on;

    #[test]
    fn asyncable_equals_abortable_across_the_exclusive_catalog() {
        for entry in entries(View::Lock) {
            assert_eq!(
                entry.meta.asyncable, entry.meta.abortable,
                "{}: asyncable must equal abortable",
                entry.key
            );
        }
    }

    #[test]
    fn finds_by_key_and_alias_case_insensitively() {
        assert_eq!(
            find(View::Async, "async.hemlock").unwrap().meta.name,
            "Hemlock"
        );
        assert_eq!(
            find(View::Async, "ASYNC.HEMLOCK.CTR").unwrap().key,
            "async.hemlock"
        );
        assert_eq!(find(View::Async, "async.mcs").unwrap().meta.name, "MCS");
        assert!(
            find(View::Async, "hemlock").is_none(),
            "exclusive keys stay out"
        );
        assert!(find(View::Async, "MCS").is_none(), "display names stay out");
        assert!(
            find(View::Async, "async.clh").is_none(),
            "CLH cannot withdraw"
        );
        assert!(find(View::Async, "nope").is_none());
    }

    #[test]
    fn every_entry_builds_a_working_dyn_async_lock() {
        for entry in entries(View::Async) {
            let lock = dyn_async_lock(entry.key).unwrap();
            assert_eq!(lock.meta(), entry.meta, "{}", entry.key);
            assert!(lock.is_idle(), "{}", entry.key);
            assert!(lock.try_acquire(true), "{}", entry.key);
            assert!(!lock.try_acquire(true), "{}", entry.key);
            // Safety: acquired just above.
            unsafe { lock.release(true) };
            assert!(lock.is_idle(), "{}", entry.key);
        }
    }

    #[test]
    fn resolve_list_preserves_order_and_reports_errors() {
        let picked = resolve_list(View::Async, "async.mcs, async.hemlock").unwrap();
        assert_eq!(
            picked.iter().map(|e| e.key).collect::<Vec<_>>(),
            ["async.mcs", "async.hemlock"]
        );
        assert!(resolve_list(View::Async, "async.mcs,bogus")
            .unwrap_err()
            .contains("known async locks: async.hemlock,"));
        assert!(resolve_list(View::Async, "async.mcs,,async.tas")
            .unwrap_err()
            .contains("empty lock name"));
        assert!(resolve_list(View::Async, "async.mcs,ASYNC.MCS")
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn dyn_async_mutex_by_name() {
        let m = dyn_async_mutex("async.ticket", 41u32).unwrap();
        block_on(async {
            *m.lock().await += 1;
        });
        assert_eq!(block_on(async { *m.lock().await }), 42);
        assert_eq!(m.meta().name, "Ticket");
        assert!(dyn_async_mutex("bogus", 0).is_err());
        assert!(dyn_async_mutex("ticket", 0).is_err());
    }

    #[test]
    fn static_dispatch_reaches_the_right_type() {
        struct NameOf;
        impl TimedLockVisitor for NameOf {
            type Output = &'static str;
            fn visit<L: RawTryLock + 'static>(self, entry: &'static CatalogEntry) -> Self::Output {
                assert_eq!(L::META, entry.meta);
                L::META.name
            }
        }
        let entry = find(View::Async, "async.mcs").unwrap();
        assert_eq!(with_timed_lock_type(entry, NameOf), Some("MCS"));
    }

    #[test]
    fn keys_are_unique_and_prefixed() {
        let keys = keys(View::Async);
        assert_eq!(keys.len(), entries(View::Async).count());
        assert!(keys.iter().all(|k| k.starts_with("async.")));
        assert!(entries(View::Async).all(|e| e.meta.asyncable));
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }
}
