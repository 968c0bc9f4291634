//! Cross-crate integration: mutual exclusion under real contention for
//! every lock in the workspace (the Hemlock family and all baselines),
//! plus an RW conformance pass over every `rw.*` catalog entry — the
//! write path must be a full mutual-exclusion lock, readers must coexist
//! with each other but never with a writer, and a property-tested
//! reader/writer schedule must lose no updates.

use hemlock_core::hemlock::{
    Hemlock, HemlockAh, HemlockChain, HemlockNaive, HemlockOverlap, HemlockParking, HemlockV1,
    HemlockV2,
};
use hemlock_core::raw::{RawLock, RawRwLock};
use hemlock_core::Mutex;
use hemlock_locks::{AndersonLock, ClhLock, McsLock, TasLock, TicketLock, TtasLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn counter_torture<L: RawLock + 'static>(threads: usize, iters: u64) {
    let m: Arc<Mutex<u64, L>> = Arc::new(Mutex::new(0));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let m = Arc::clone(&m);
            s.spawn(move || {
                for _ in 0..iters {
                    *m.lock() += 1;
                }
            });
        }
    });
    assert_eq!(*m.lock(), threads as u64 * iters, "{}", L::META.name);
}

fn overlap_detector<L: RawLock + 'static>(threads: usize, iters: u64) {
    let l = Arc::new(L::default());
    let in_cs = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for _ in 0..threads {
            let l = Arc::clone(&l);
            let in_cs = Arc::clone(&in_cs);
            s.spawn(move || {
                for _ in 0..iters {
                    l.lock();
                    assert!(
                        !in_cs.swap(true, Ordering::AcqRel),
                        "{} overlap",
                        L::META.name
                    );
                    std::hint::spin_loop();
                    in_cs.store(false, Ordering::Release);
                    // Safety: acquired above on this thread.
                    unsafe { l.unlock() };
                }
            });
        }
    });
}

macro_rules! exclusion_tests {
    ($($name:ident => $lock:ty),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                counter_torture::<$lock>(4, 20_000);
                overlap_detector::<$lock>(4, 10_000);
            }
        )+
    };
}

exclusion_tests! {
    hemlock_ctr => Hemlock,
    hemlock_naive => HemlockNaive,
    hemlock_overlap => HemlockOverlap,
    hemlock_ah => HemlockAh,
    hemlock_v1 => HemlockV1,
    hemlock_v2 => HemlockV2,
    hemlock_parking => HemlockParking,
    hemlock_chain => HemlockChain,
    mcs => McsLock,
    clh => ClhLock,
    ticket => TicketLock,
    tas => TasLock,
    ttas => TtasLock,
    anderson => AndersonLock,
}

/// RW conformance, statically dispatched: the write path passes the same
/// counter-torture and overlap-detector gauntlet as every exclusive lock,
/// readers coexist, writers exclude readers, and a proptest-driven
/// reader/writer schedule (arbitrary per-thread interleavings of
/// increments and read-read consistency probes) ends with exactly the
/// sequential sum — no lost updates, no torn reads.
mod rw_conformance {
    use super::*;
    use proptest::prelude::*;

    fn readers_coexist<L: RawRwLock + 'static>(key: &str) {
        let l = Arc::new(L::default());
        l.read_lock();
        let peer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.read_lock(); // must not block behind the held read mode
                unsafe { l.read_unlock() };
            })
        };
        peer.join()
            .unwrap_or_else(|_| panic!("{key}: reader blocked reader"));
        unsafe { l.read_unlock() };
    }

    fn writer_excludes_readers<L: RawRwLock + 'static>(key: &str) {
        let l = Arc::new(L::default());
        let writer_in = Arc::new(AtomicBool::new(false));
        l.write_lock();
        writer_in.store(true, Ordering::Release);
        let reader = {
            let l = Arc::clone(&l);
            let writer_in = Arc::clone(&writer_in);
            let key = key.to_string();
            std::thread::spawn(move || {
                l.read_lock();
                assert!(
                    !writer_in.load(Ordering::Acquire),
                    "{key}: reader admitted during a write phase"
                );
                unsafe { l.read_unlock() };
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(5));
        writer_in.store(false, Ordering::Release);
        unsafe { l.write_unlock() };
        reader.join().unwrap();
    }

    /// Proptest oracle: per-thread schedules of `Write(delta)` /
    /// `Read` ops under one RW lock must sum exactly like the sequential
    /// schedule, and a reader must never observe the value changing while
    /// it holds the read mode.
    fn run_rw_schedule<L: RawRwLock + 'static>(ops: &[Vec<Option<i64>>]) -> i64 {
        let m: Mutex<i64, L> = Mutex::new(0);
        std::thread::scope(|s| {
            for thread_ops in ops {
                let m = &m;
                s.spawn(move || {
                    for op in thread_ops {
                        match op {
                            Some(delta) => *m.lock() += delta,
                            None => {
                                let g = m.read();
                                let a = *g;
                                std::hint::spin_loop();
                                assert_eq!(a, *g, "torn read under the read mode");
                            }
                        }
                    }
                });
            }
        });
        m.into_inner()
    }

    macro_rules! rw_conformance_tests {
        ($(($key:literal, $aliases:tt, $ty:ty, $cap:ident, $rw:ty, $($rest:tt)*)),+ $(,)?) => {
            #[test]
            fn write_path_counter_torture_and_overlap() {
                $(
                    super::counter_torture::<$rw>(4, 5_000);
                    super::overlap_detector::<$rw>(4, 2_000);
                )+
            }

            #[test]
            fn readers_coexist_for_every_rw_entry() {
                $(readers_coexist::<$rw>(concat!("rw.", $key));)+
            }

            #[test]
            fn writer_excludes_readers_for_every_rw_entry() {
                $(writer_excludes_readers::<$rw>(concat!("rw.", $key));)+
            }
        };
    }
    hemlock_locks::for_each_lock!(rw_conformance_tests);

    /// One schedule step: `Some(delta)` = write `+= delta`, `None` = a
    /// read-read consistency probe (the shim has no `option::of`, so the
    /// two arms are composed with `prop_oneof!` — reads drawn half the
    /// time).
    fn rw_op() -> impl Strategy<Value = Option<i64>> {
        prop_oneof![(-100i64..100).prop_map(Some), (0i64..1).prop_map(|_| None),]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The native RW lock and representative adapters survive
        /// arbitrary reader/writer schedules without losing updates.
        #[test]
        fn rw_schedules_match_sequential_sum(ops in proptest::collection::vec(
            proptest::collection::vec(rw_op(), 0..48), 1..4)) {
            let expected: i64 = ops.iter().flatten().flatten().sum();
            prop_assert_eq!(
                run_rw_schedule::<hemlock_locks::rw::HemlockRw>(&ops), expected);
            prop_assert_eq!(
                run_rw_schedule::<hemlock_locks::rw::RwFromRaw<McsLock>>(&ops), expected);
            prop_assert_eq!(
                run_rw_schedule::<hemlock_locks::rw::RwFromRaw<ClhLock>>(&ops), expected);
        }
    }
}

#[test]
fn mixed_lock_types_coexist() {
    // Different algorithms in one program, one thread touching all of them
    // (each family has its own thread-local Grant slot / node pools).
    let a: Mutex<u64, Hemlock> = Mutex::new(0);
    let b: Mutex<u64, McsLock> = Mutex::new(0);
    let c: Mutex<u64, ClhLock> = Mutex::new(0);
    let d: Mutex<u64, HemlockV1> = Mutex::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..5_000 {
                    let mut ga = a.lock();
                    let mut gb = b.lock();
                    let mut gc = c.lock();
                    let mut gd = d.lock();
                    *ga += 1;
                    *gb += 1;
                    *gc += 1;
                    *gd += 1;
                }
            });
        }
    });
    assert_eq!(*a.lock(), 20_000);
    assert_eq!(*b.lock(), 20_000);
    assert_eq!(*c.lock(), 20_000);
    assert_eq!(*d.lock(), 20_000);
}
