//! # hemlock-locks
//!
//! The lock algorithms the Hemlock paper evaluates against, implemented
//! from scratch with the same fidelity choices as the paper's framework:
//!
//! - [`McsLock`] — classic MCS. The lock body is 2 words (`tail` plus a
//!   `head` field that carries the owner's queue element from `lock` to
//!   `unlock`, making the classic algorithm usable behind a context-free
//!   pthread-style interface). Queue elements are cache-line padded and come
//!   from a thread-local free stack, exactly as described in the paper's
//!   footnote 5.
//! - [`ClhLock`] — CLH in Scott's "standard interface" formulation
//!   (Figure 4.14 of *Shared-Memory Synchronization*): 2-word lock body,
//!   per-lock dummy element installed at construction and recovered at
//!   destruction, elements migrating between threads and locks.
//! - [`TicketLock`] — classic two-word ticket lock (global spinning).
//! - [`TasLock`] / [`TtasLock`] — test-and-set and polite
//!   test-and-test-and-set (related work; compact but unfair).
//! - [`AndersonLock`] — Anderson's array-based queueing lock (related work;
//!   local spinning at the cost of a per-lock waiting array sized to the
//!   maximum thread count).
//!
//! All implement [`hemlock_core::RawLock`], so they slot into the same
//! `Mutex<T, L>`, benchmarks, and tests as the Hemlock family.
//!
//! The [`rw`] module adds the reader-writer locks: the native
//! [`rw::HemlockRw`] and the [`rw::RwFromRaw`] adapter over any lock here.
//!
//! This crate also hosts the [`catalog`] — the one registry mapping string
//! keys (`"hemlock"`, `"mcs"`, `"rw.mcs"`, `"async.mcs"`, …) to lock types,
//! factories and [`hemlock_core::LockMeta`] descriptors, with one
//! [`for_each_lock!`] row per algorithm and both dynamic
//! ([`catalog::dyn_mutex`]) and static ([`catalog::with_lock_type`],
//! [`catalog::with_timed_lock_type`]) dispatch. Every binary resolves its
//! `--lock` arguments here.

#![deny(missing_docs)]

mod anderson;
pub mod catalog;
mod clh;
mod from_raw;
mod hemlock_rw;
mod mcs;
pub mod rw;
mod tas;
mod ticket;

pub use anderson::AndersonLock;
pub use catalog::CatalogEntry;
pub use clh::ClhLock;
pub use mcs::McsLock;
pub use tas::{TasLock, TtasLock};
pub use ticket::TicketLock;

/// Shared conformance tests for baseline locks (mutual exclusion, handover,
/// multi-lock usage). FIFO and trylock behaviour differ per algorithm and
/// are tested in each module.
#[cfg(test)]
macro_rules! baseline_tests {
    ($lock:ty) => {
        mod baseline {
            use hemlock_core::mutex::Mutex;
            use hemlock_core::raw::RawLock;
            use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
            use std::sync::Arc;

            #[test]
            fn uncontended_roundtrip() {
                let l = <$lock>::default();
                for _ in 0..100 {
                    l.lock();
                    unsafe { l.unlock() };
                }
            }

            #[test]
            fn guard_api_counter() {
                let m: Arc<Mutex<u64, $lock>> = Arc::new(Mutex::new(0));
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let m = &m;
                        s.spawn(move || {
                            for _ in 0..5_000 {
                                *m.lock() += 1;
                            }
                        });
                    }
                });
                assert_eq!(*m.lock(), 20_000);
            }

            #[test]
            fn critical_sections_never_overlap() {
                let l = Arc::new(<$lock>::default());
                let in_cs = Arc::new(AtomicBool::new(false));
                std::thread::scope(|s| {
                    for _ in 0..4 {
                        let l = Arc::clone(&l);
                        let in_cs = Arc::clone(&in_cs);
                        s.spawn(move || {
                            for _ in 0..2_000 {
                                l.lock();
                                assert!(!in_cs.swap(true, Ordering::AcqRel), "overlap!");
                                in_cs.store(false, Ordering::Release);
                                unsafe { l.unlock() };
                            }
                        });
                    }
                });
            }

            #[test]
            fn handover_blocks_then_transfers() {
                let l = Arc::new(<$lock>::default());
                let stage = Arc::new(AtomicUsize::new(0));
                l.lock();
                let t = {
                    let l = Arc::clone(&l);
                    let stage = Arc::clone(&stage);
                    std::thread::spawn(move || {
                        stage.store(1, Ordering::Release);
                        l.lock();
                        stage.store(2, Ordering::Release);
                        unsafe { l.unlock() };
                    })
                };
                while stage.load(Ordering::Acquire) < 1 {
                    std::hint::spin_loop();
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                assert_eq!(stage.load(Ordering::Acquire), 1);
                unsafe { l.unlock() };
                t.join().unwrap();
                assert_eq!(stage.load(Ordering::Acquire), 2);
            }

            #[test]
            fn holds_multiple_locks_released_in_any_order() {
                let a = <$lock>::default();
                let b = <$lock>::default();
                let c = <$lock>::default();
                a.lock();
                b.lock();
                c.lock();
                unsafe { b.unlock() };
                unsafe { a.unlock() };
                unsafe { c.unlock() };
                a.lock();
                b.lock();
                unsafe { b.unlock() };
                unsafe { a.unlock() };
            }
        }
    };
}
#[cfg(test)]
pub(crate) use baseline_tests;

#[cfg(test)]
mod proptests {
    use super::*;
    use hemlock_core::mutex::Mutex;
    use proptest::prelude::*;

    fn run_schedule<L: hemlock_core::RawLock + 'static>(ops: &[Vec<i64>]) -> i64 {
        let m: Mutex<i64, L> = Mutex::new(0);
        std::thread::scope(|s| {
            for thread_ops in ops {
                let m = &m;
                s.spawn(move || {
                    for &d in thread_ops {
                        *m.lock() += d;
                    }
                });
            }
        });
        m.into_inner()
    }

    macro_rules! schedule_oracle {
        ($name:ident, $lock:ty) => {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(16))]
                #[test]
                fn $name(ops in proptest::collection::vec(
                    proptest::collection::vec(-100i64..100, 0..64), 1..4)) {
                    let expected: i64 = ops.iter().flatten().sum();
                    prop_assert_eq!(run_schedule::<$lock>(&ops), expected);
                }
            }
        };
    }

    schedule_oracle!(mcs_matches_sequential_sum, McsLock);
    schedule_oracle!(clh_matches_sequential_sum, ClhLock);
    schedule_oracle!(ticket_matches_sequential_sum, TicketLock);
    schedule_oracle!(tas_matches_sequential_sum, TasLock);
    schedule_oracle!(ttas_matches_sequential_sum, TtasLock);
    schedule_oracle!(anderson_matches_sequential_sum, AndersonLock);
}
