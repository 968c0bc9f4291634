//! `core` layer timing from outside: [`TimedLock`] wraps any raw lock and
//! is used as the `L` of the structures under test, so every acquisition
//! the program makes through its public lock trait is counted and timed.
//!
//! Counters live in one record per thread (registered on first use and
//! summed by [`snapshot`]); they only move while [`set_recording`] is on,
//! so set-up and warm-up acquisitions stay out of the window, and
//! [`snapshot`] reports only what was counted since recording last
//! started, so one run's counts never leak into the next. Each record
//! has a single writer, so it is updated with plain loads and stores;
//! times are read from the time-stamp counter, and only every
//! [`TIME_EVERY`]th acquisition of a thread is timed. All three keep the
//! wrapper's own cost small next to a lock hand-off.

use crate::hist::{AtomicHist, Hist};
use hemlock_core::meta::LockMeta;
use hemlock_core::raw::{RawLock, RawTryLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A thread times one in this many of its acquisitions (counts cover all).
pub const TIME_EVERY: u64 = 8;

static RECORDING: AtomicBool = AtomicBool::new(false);
static THREADS: Mutex<Vec<Arc<ThreadCounters>>> = Mutex::new(Vec::new());
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
/// Taken when recording last started.
static MARK: Mutex<Option<Mark>> = Mutex::new(None);

struct Mark {
    /// `ticks()` and the clock at the mark: the base from which
    /// [`snapshot`] converts ticks to nanoseconds.
    ticks: u64,
    at: Instant,
    /// Every thread's counters at the mark, subtracted by [`snapshot`].
    totals: CoreSummary,
}

#[derive(Default)]
struct ThreadCounters {
    acquires: AtomicU64,
    same_owner: AtomicU64,
    try_attempts: AtomicU64,
    try_fails: AtomicU64,
    /// In ticks.
    wait: AtomicHist,
    /// In ticks.
    hold: AtomicHist,
}

/// Adds one to a counter only its owning thread writes; returns the new
/// value.
fn bump(c: &AtomicU64) -> u64 {
    let n = c.load(Ordering::Relaxed) + 1;
    c.store(n, Ordering::Relaxed);
    n
}

struct Me {
    id: u64,
    counters: Arc<ThreadCounters>,
}

thread_local! {
    static ME: Me = {
        let counters = Arc::new(ThreadCounters::default());
        THREADS.lock().expect("timed-lock registry").push(Arc::clone(&counters));
        Me { id: NEXT_THREAD.fetch_add(1, Ordering::Relaxed), counters }
    };
}

/// A cheap monotonic clock, never 0 (so 0 can mean "no timestamp").
#[cfg(target_arch = "x86_64")]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` exists on every x86_64 CPU and has no preconditions.
    unsafe { core::arch::x86_64::_rdtsc() | 1 }
}

#[cfg(not(target_arch = "x86_64"))]
fn ticks() -> u64 {
    static BASE: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64 | 1
}

/// Turns counting on or off for every [`TimedLock`] in the process.
/// Turning it on starts a new count.
pub fn set_recording(on: bool) {
    if on {
        // Recording is off, so the counters stand still while summed.
        *MARK.lock().expect("timed-lock mark") = Some(Mark {
            ticks: ticks(),
            at: Instant::now(),
            totals: totals(),
        });
    }
    RECORDING.store(on, Ordering::SeqCst);
}

fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Sums of every thread's counters since recording last started.
#[derive(Default)]
pub struct CoreSummary {
    pub acquires: u64,
    pub same_owner: u64,
    pub try_attempts: u64,
    pub try_fails: u64,
    /// Blocking acquisitions only: from the `lock` call to its return.
    wait_ticks: Hist,
    /// From acquisition to the start of the matching `unlock`.
    hold_ticks: Hist,
    ticks_per_ns: f64,
}

impl CoreSummary {
    pub fn wait_ns(&self, q: f64) -> f64 {
        self.wait_ticks.quantile(q) / self.ticks_per_ns
    }

    pub fn hold_ns(&self, q: f64) -> f64 {
        self.hold_ticks.quantile(q) / self.ticks_per_ns
    }
}

/// Every thread's counters summed, since the process started.
fn totals() -> CoreSummary {
    let mut s = CoreSummary::default();
    for t in THREADS.lock().expect("timed-lock registry").iter() {
        s.acquires += t.acquires.load(Ordering::Relaxed);
        s.same_owner += t.same_owner.load(Ordering::Relaxed);
        s.try_attempts += t.try_attempts.load(Ordering::Relaxed);
        s.try_fails += t.try_fails.load(Ordering::Relaxed);
        s.wait_ticks.merge(&t.wait.snapshot());
        s.hold_ticks.merge(&t.hold.snapshot());
    }
    s
}

/// What was counted since recording last started.
pub fn snapshot() -> CoreSummary {
    let mut s = totals();
    if let Some(mark) = &*MARK.lock().expect("timed-lock mark") {
        let t = &mark.totals;
        s.acquires -= t.acquires;
        s.same_owner -= t.same_owner;
        s.try_attempts -= t.try_attempts;
        s.try_fails -= t.try_fails;
        s.wait_ticks.subtract(&t.wait_ticks);
        s.hold_ticks.subtract(&t.hold_ticks);
        s.ticks_per_ns = (ticks() - mark.ticks) as f64 / mark.at.elapsed().as_nanos().max(1) as f64;
    } else {
        s.ticks_per_ns = 1.0;
    }
    s
}

/// A raw lock that times and counts every acquisition of `L`.
///
/// For exclusive locks: read acquisitions take the exclusive path, as
/// `RawLock`'s defaults do for exclusive algorithms.
#[derive(Default)]
pub struct TimedLock<L> {
    inner: L,
    /// When the current holder acquired, in ticks (0 = not timed).
    acquired_at: AtomicU64,
    /// Thread id of the latest holder.
    last_owner: AtomicU64,
}

impl<L> TimedLock<L> {
    /// Bookkeeping right after this thread acquired; `waited_since` is
    /// when a blocking `lock` call started. Only the holder writes the
    /// lock's fields, so plain stores do.
    fn acquired(&self, me: &Me, waited_since: Option<u64>) {
        let n = bump(&me.counters.acquires);
        if self.last_owner.load(Ordering::Relaxed) == me.id {
            bump(&me.counters.same_owner);
        } else {
            self.last_owner.store(me.id, Ordering::Relaxed);
        }
        if n.is_multiple_of(TIME_EVERY) {
            let now = ticks();
            if let Some(t0) = waited_since {
                me.counters
                    .wait
                    .record_single_writer(now.saturating_sub(t0));
            }
            self.acquired_at.store(now, Ordering::Relaxed);
        }
    }
}

// SAFETY: every acquisition and release is delegated to `inner`, a
// `RawLock` itself, on the calling thread; the extra fields are atomics
// written only by the holder and never decide who holds the lock.
unsafe impl<L: RawLock> RawLock for TimedLock<L> {
    const META: LockMeta = L::META;

    fn lock(&self) {
        if !recording() {
            return self.inner.lock();
        }
        let t0 = ticks();
        self.inner.lock();
        ME.with(|me| self.acquired(me, Some(t0)));
    }

    unsafe fn unlock(&self) {
        let at = self.acquired_at.load(Ordering::Relaxed);
        if at != 0 {
            self.acquired_at.store(0, Ordering::Relaxed);
            if recording() {
                let held = ticks().saturating_sub(at);
                ME.with(|me| me.counters.hold.record_single_writer(held));
            }
        }
        // SAFETY: forwarded from the caller, who holds this lock.
        unsafe { self.inner.unlock() }
    }

    fn is_locked_hint(&self) -> Option<bool> {
        self.inner.is_locked_hint()
    }
}

// SAFETY: `try_lock` succeeds exactly when `inner.try_lock` does, which
// confers ownership of `inner` and therefore of this lock; the timed
// methods are the trait's provided loops over this `try_lock`.
unsafe impl<L: RawTryLock> RawTryLock for TimedLock<L> {
    fn try_lock(&self) -> bool {
        let ok = self.inner.try_lock();
        if recording() {
            ME.with(|me| {
                bump(&me.counters.try_attempts);
                if ok {
                    self.acquired(me, None);
                } else {
                    bump(&me.counters.try_fails);
                }
            });
        }
        ok
    }
}
