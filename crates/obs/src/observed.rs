//! `Observed<L>` — a zero-size lock wrapper that reports acquisitions,
//! contention, releases, and timed-out aborts through
//! [`census::note`](crate::census::note): to the registry and the calling
//! thread's trace ring.
//!
//! With observability disabled ([`crate::set_enabled`]`(false)`) every
//! operation is the inner lock's operation behind **one relaxed load and
//! an untaken branch** — the cost contract the `obs_overhead` integration
//! test enforces at <5%. Enabled, the wrapper classifies each acquisition
//! by first attempting the inner trylock (for Hemlock that is the same
//! `CAS`-on-`Tail` its uncontended `lock()` fast path resolves to, so the
//! protocol is unchanged) and falling back to the blocking path, which is
//! what lets it see contention on a lock type it cannot open up.
//!
//! The wrapper also keeps the §5.4 held-locks census in thread-local
//! state, so `Observed` acquisitions feed the same `core.locks_held` /
//! `core.lock_while_holding` registry metrics as
//! [`HemlockInstrumented`](hemlock_core::hemlock::HemlockInstrumented)
//! (which observes *inside* the protocol and additionally sees Grant-word
//! waiter counts and hand-over CAS failures).
//!
//! The catalog registers [`ObservedHemlock`] under the key `obs.hemlock`.

use crate::census::note;
use hemlock_core::events::LockEvent;
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};
use std::cell::Cell;
use std::marker::PhantomData;

/// Supplies the display name for an [`Observed`] instantiation.
///
/// `LockMeta::name` is a `const &'static str`, so it cannot be derived
/// from `L::META.name` by concatenation in const context; each observed
/// lock type instead carries a tag naming it.
pub trait ObsTag {
    /// The `META.name` (and event site) of the observed lock.
    const NAME: &'static str;
}

/// Tag for [`ObservedHemlock`].
pub struct HemlockObsTag;

impl ObsTag for HemlockObsTag {
    const NAME: &'static str = "Hemlock(obs)";
}

/// The catalog's `obs.hemlock` entry: CTR Hemlock behind the observer.
pub type ObservedHemlock = Observed<hemlock_core::hemlock::Hemlock, HemlockObsTag>;

std::thread_local! {
    /// Locks of *any* `Observed` instantiation currently held by this
    /// thread (the §5.4 multi-hold census).
    static HELD: Cell<usize> = const { Cell::new(0) };
}

/// See the [module docs](self).
pub struct Observed<L, T: ObsTag> {
    inner: L,
    _tag: PhantomData<T>,
}

impl<L: Default, T: ObsTag> Default for Observed<L, T> {
    fn default() -> Self {
        Self {
            inner: L::default(),
            _tag: PhantomData,
        }
    }
}

impl<L: RawTryLock, T: ObsTag> Observed<L, T> {
    /// Census bookkeeping for one successful acquisition.
    #[cold]
    fn note_acquired(contended: bool) {
        let held = HELD.with(|h| {
            let v = h.get() + 1;
            h.set(v);
            v
        });
        if held > 1 {
            note(T::NAME, LockEvent::LockWhileHolding, 0);
        }
        if contended {
            note(T::NAME, LockEvent::ContendedAcquire, 0);
        }
        note(T::NAME, LockEvent::Acquire, held as u64);
    }

    #[cold]
    fn note_released() {
        let held = HELD.with(|h| {
            let v = h.get().saturating_sub(1);
            h.set(v);
            v
        });
        note(T::NAME, LockEvent::Release, held as u64);
    }
}

// Safety: every operation defers mutual exclusion to the inner lock; the
// wrapper only adds bookkeeping around completed protocol steps.
unsafe impl<L: RawTryLock + 'static, T: ObsTag + Send + Sync + 'static> RawLock for Observed<L, T> {
    const META: LockMeta = {
        let mut m = L::META;
        m.name = T::NAME;
        m
    };

    #[inline]
    fn lock(&self) {
        if !crate::enabled() {
            return self.inner.lock();
        }
        // Classify: an inner trylock that succeeds was uncontended (for
        // Hemlock, the same CAS-on-Tail as the uncontended SWAP path).
        if self.inner.try_lock() {
            Self::note_acquired(false);
        } else {
            self.inner.lock();
            Self::note_acquired(true);
        }
    }

    #[inline]
    unsafe fn unlock(&self) {
        self.inner.unlock();
        if crate::enabled() {
            Self::note_released();
        }
    }

    #[inline]
    fn is_locked_hint(&self) -> Option<bool> {
        self.inner.is_locked_hint()
    }
}

// Safety: as above — ownership semantics are the inner lock's.
unsafe impl<L: RawTryLock + 'static, T: ObsTag + Send + Sync + 'static> RawTryLock
    for Observed<L, T>
{
    #[inline]
    fn try_lock(&self) -> bool {
        let ok = self.inner.try_lock();
        // Mirror HemlockInstrumented: a successful trylock counts as an
        // (uncontended) acquire; a failed one is not a contended acquire.
        if ok && crate::enabled() {
            Self::note_acquired(false);
        }
        ok
    }

    #[inline]
    fn try_lock_until(&self, deadline: std::time::Instant) -> bool {
        if !crate::enabled() {
            return self.inner.try_lock_until(deadline);
        }
        if self.inner.try_lock() {
            Self::note_acquired(false);
            return true;
        }
        let ok = self.inner.try_lock_until(deadline);
        if ok {
            Self::note_acquired(true);
        } else {
            note(T::NAME, LockEvent::TimeoutAbort, 0);
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;
    use crate::trace::{export_events, lock_events_text};
    use std::sync::Arc;
    use std::time::Duration;

    // These tests leave observability in its default-enabled state; the
    // disabled fast path is covered by the `obs_overhead` workspace test
    // (which needs a process to itself to toggle the global flag).

    #[test]
    fn meta_renames_but_keeps_shape() {
        let m = <ObservedHemlock as RawLock>::META;
        let inner = <hemlock_core::hemlock::Hemlock as RawLock>::META;
        assert_eq!(m.name, "Hemlock(obs)");
        assert_eq!(m.lock_words, inner.lock_words);
        assert_eq!(m.thread_words, inner.thread_words);
        assert_eq!(m.abortable, inner.abortable);
        assert_eq!(m.try_lock, inner.try_lock);
    }

    #[test]
    fn counts_acquires_and_contention() {
        let r = registry();
        let acquires0 = r.core_acquires.get();
        let releases0 = r.core_releases.get();
        let l: Arc<ObservedHemlock> = Arc::new(Default::default());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        l.lock();
                        unsafe { l.unlock() };
                    }
                });
            }
        });
        assert!(r.core_acquires.get() >= acquires0 + 4_000);
        assert!(r.core_releases.get() >= releases0 + 4_000);
    }

    #[test]
    fn timeout_aborts_are_counted_and_dump() {
        let _rings = crate::ring_tests();
        let r = registry();
        let aborts0 = r.core_timeout_aborts.get();
        let l = ObservedHemlock::default();
        l.lock();
        assert!(!l.try_lock_for(Duration::from_millis(5)));
        unsafe { l.unlock() };
        assert!(r.core_timeout_aborts.get() > aborts0);
        // The abort lands in this thread's ring like any other lock event,
        // so the `RECORDER` text shows it.
        let dump = lock_events_text(&export_events());
        assert!(dump.contains(" Hemlock(obs) timeout_abort 0\n"), "{dump}");
    }

    #[test]
    fn mutual_exclusion_holds_under_observation() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let l: Arc<ObservedHemlock> = Arc::new(Default::default());
        let in_cs = AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let l = Arc::clone(&l);
                let in_cs = &in_cs;
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
}
