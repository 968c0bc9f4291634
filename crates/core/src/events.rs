//! Lock-event emission hook: how core locks report to an observer that
//! lives *above* this crate.
//!
//! `hemlock-obs` (the metrics registry and the per-thread event rings)
//! depends on `hemlock-core`, so core cannot call it directly. Instead this module
//! defines the narrow seam between them: a [`LockEvent`] taxonomy, an
//! [`EventSink`] trait, and a process-wide install point. Instrumented
//! lock paths call [`emit`]; until a sink is installed that is **one
//! relaxed load and an untaken branch** — the cost contract the obs
//! overhead test enforces.
//!
//! Only instrumentation-bearing lock types emit
//! ([`HemlockInstrumented`](crate::hemlock::HemlockInstrumented) here, and
//! `hemlock-obs`'s `Observed<L>` wrapper above); the production variants
//! ([`Hemlock`](crate::hemlock::Hemlock) and friends) contain no emit
//! calls at all, so the paper-facing benchmarks are untouched by any of
//! this.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// One observable lock-protocol event. `arg` in [`emit`] carries the
/// event-specific quantity noted per variant.
#[repr(u8)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockEvent {
    /// A lock was acquired (`arg` = locks now held by this thread, when
    /// the emitter tracks it; 0 otherwise).
    Acquire = 0,
    /// The acquisition found the lock held and had to wait.
    ContendedAcquire = 1,
    /// An unlock found a successor queued and handed over directly.
    ContendedHandover = 2,
    /// A thread acquired while already holding at least one lock (the
    /// §5.4 multi-hold census; these are the acquisitions that can make
    /// Grant-word spinning non-local).
    LockWhileHolding = 3,
    /// A waiter census sample: `arg` = threads concurrently spinning on
    /// one Grant word (§5.4 max-grant-waiters).
    GrantWaiters = 4,
    /// A lock was released (`arg` = locks still held, when tracked).
    Release = 5,
    /// A timed acquisition (`try_lock_for`/`try_lock_until`) gave up at
    /// its deadline.
    TimeoutAbort = 6,
}

impl LockEvent {
    /// The inverse of `self as u8` (for decoding event-ring records).
    pub fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            0 => LockEvent::Acquire,
            1 => LockEvent::ContendedAcquire,
            2 => LockEvent::ContendedHandover,
            3 => LockEvent::LockWhileHolding,
            4 => LockEvent::GrantWaiters,
            5 => LockEvent::Release,
            6 => LockEvent::TimeoutAbort,
            _ => return None,
        })
    }

    /// Short stable name (used in lock-event dumps and trace exports).
    pub fn name(self) -> &'static str {
        match self {
            LockEvent::Acquire => "acquire",
            LockEvent::ContendedAcquire => "contended_acquire",
            LockEvent::ContendedHandover => "contended_handover",
            LockEvent::LockWhileHolding => "lock_while_holding",
            LockEvent::GrantWaiters => "grant_waiters",
            LockEvent::Release => "release",
            LockEvent::TimeoutAbort => "timeout_abort",
        }
    }
}

/// A consumer of lock events. Implementations must be cheap and
/// wait-free-ish: `record` runs inline on lock/unlock paths.
pub trait EventSink: Send + Sync {
    /// Consumes one event. `site` identifies the emitting lock type (its
    /// `META.name`); `arg` is per-[`LockEvent`] (see variant docs).
    fn record(&self, site: &'static str, event: LockEvent, arg: u64);
}

static SINK: OnceLock<&'static dyn EventSink> = OnceLock::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs the process-wide sink. First caller wins; later calls are
/// no-ops returning `false` (installing twice is normal when several test
/// scenarios in one process each ensure the sink exists).
pub fn install(sink: &'static dyn EventSink) -> bool {
    let won = SINK.set(sink).is_ok();
    if won {
        // Publish *after* SINK is set so an emitter that sees the flag
        // also sees the sink.
        INSTALLED.store(true, Ordering::Release);
    }
    won
}

/// Is a sink installed? One relaxed load — this is the disabled fast
/// path's entire cost.
#[inline]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// Emits one event to the installed sink, if any.
#[inline]
pub fn emit(site: &'static str, event: LockEvent, arg: u64) {
    if enabled() {
        if let Some(sink) = SINK.get() {
            sink.record(site, event, arg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct CountingSink {
        seen: AtomicU64,
        last_arg: AtomicU64,
    }

    impl EventSink for CountingSink {
        fn record(&self, site: &'static str, _event: LockEvent, arg: u64) {
            // Other tests in this process emit too (the instrumented lock's
            // family tests); count only this test's own site.
            if site == "test-site" {
                self.seen.fetch_add(1, Ordering::Relaxed);
                self.last_arg.store(arg, Ordering::Relaxed);
            }
        }
    }

    static TEST_SINK: CountingSink = CountingSink {
        seen: AtomicU64::new(0),
        last_arg: AtomicU64::new(0),
    };

    #[test]
    fn emit_reaches_installed_sink() {
        // Note: the sink is process-global, so this is the only test in
        // this crate that installs one.
        install(&TEST_SINK);
        assert!(enabled());
        let before = TEST_SINK.seen.load(Ordering::Relaxed);
        emit("test-site", LockEvent::Acquire, 7);
        assert_eq!(TEST_SINK.seen.load(Ordering::Relaxed), before + 1);
        assert_eq!(TEST_SINK.last_arg.load(Ordering::Relaxed), 7);
        // Second install loses but does not panic.
        assert!(!install(&TEST_SINK));
    }

    #[test]
    fn event_codes_roundtrip() {
        for code in 0..=6u8 {
            let ev = LockEvent::from_u8(code).expect("defined");
            assert_eq!(ev as u8, code);
            assert!(!ev.name().is_empty());
        }
        assert_eq!(LockEvent::from_u8(7), None);
        assert_eq!(LockEvent::from_u8(255), None);
    }
}
