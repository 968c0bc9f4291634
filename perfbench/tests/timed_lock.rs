//! `TimedLock` must stay a lock: wrapping adds counting, never overlap.
//! One test function, because the counters are process-wide.

use hemlock_core::hemlock::Hemlock;
use hemlock_core::raw::{RawLock, RawTryLock};
use perfbench::timed::{self, TimedLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

const THREADS: u64 = 4;
const PAIRS: u64 = 20_000;
/// A multiple of `timed::TIME_EVERY`, so holds are timed.
const TIMED_PAIRS: u64 = 64;

#[test]
fn timed_lock_keeps_mutual_exclusion_and_counts_every_acquisition() {
    let lock = TimedLock::<Hemlock>::default();
    let inside = AtomicBool::new(false);
    let count = AtomicU64::new(0);
    let start = Barrier::new(THREADS as usize);
    timed::set_recording(true);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for _ in 0..PAIRS {
                    lock.lock();
                    assert!(!inside.swap(true, Ordering::Relaxed), "two holders at once");
                    // A plain read-then-write: a second holder would lose updates.
                    count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
                    inside.store(false, Ordering::Relaxed);
                    // SAFETY: acquired above on this thread.
                    unsafe { lock.unlock() };
                }
            });
        }
    });

    // A held lock fails a try; a free one grants it.
    lock.lock();
    let stolen = std::thread::scope(|s| s.spawn(|| lock.try_lock()).join().expect("probe"));
    assert!(!stolen, "try_lock succeeded on a held lock");
    // SAFETY: acquired above on this thread.
    unsafe { lock.unlock() };
    assert!(lock.try_lock());
    // SAFETY: acquired by the try above.
    unsafe { lock.unlock() };
    timed::set_recording(false);

    assert_eq!(count.load(Ordering::Relaxed), THREADS * PAIRS);
    let s = timed::snapshot();
    assert_eq!(s.acquires, THREADS * PAIRS + 2);
    assert_eq!((s.try_attempts, s.try_fails), (2, 1));
    assert!(s.same_owner <= s.acquires);
    assert!(s.hold_ns(0.5) > 0.0, "sampled holds were timed");

    // A new recording starts from zero: nothing of the one above remains.
    timed::set_recording(true);
    let fresh = timed::snapshot();
    assert_eq!(
        (fresh.acquires, fresh.try_attempts, fresh.same_owner),
        (0, 0, 0)
    );
    assert_eq!(fresh.hold_ns(0.5), 0.0);
    for _ in 0..TIMED_PAIRS {
        lock.lock();
        // SAFETY: acquired above on this thread.
        unsafe { lock.unlock() };
    }
    timed::set_recording(false);
    let again = timed::snapshot();
    assert_eq!(again.acquires, TIMED_PAIRS);
    // This thread also made the last acquisition of the recording above.
    assert_eq!(again.same_owner, TIMED_PAIRS);
    assert!(again.hold_ns(0.5) > 0.0);
}
