//! The lock-event census: every observed lock event, aggregated into the
//! registry's `core.*` metrics and written into the calling thread's
//! trace ring.
//!
//! [`note`] is the one entry point. `hemlock-core` cannot depend on this
//! crate, so its instrumented lock paths emit through the narrow
//! `hemlock_core::events` seam; [`install`] plugs this module's sink into
//! that seam, and the sink calls [`note`]. The `Observed<L>` wrapper calls
//! [`note`] directly.
//!
//! [`report`] reads the census back in the shape of the paper's §5.4
//! characterization (acquires, contended acquires, lock-while-holding,
//! max locks held, max Grant-word waiters), replacing the counter
//! plumbing `HemlockInstrumented` used to carry itself.

use crate::registry::registry;
use crate::trace;
use hemlock_core::events::{self, EventSink, LockEvent};
use std::fmt;

/// Records one lock event from `site` (the lock's `META.name`): bumps
/// the matching `core.*` metric and writes the event, with `arg` and the
/// thread's current trace id, into the thread's trace ring. A no-op while
/// [`crate::enabled`] is off.
pub fn note(site: &'static str, event: LockEvent, arg: u64) {
    if !crate::enabled() {
        return;
    }
    let r = registry();
    match event {
        LockEvent::Acquire => {
            r.core_acquires.inc();
            r.core_locks_held.observe(arg as i64);
        }
        LockEvent::ContendedAcquire => r.core_contended_acquires.inc(),
        LockEvent::ContendedHandover => r.core_contended_handovers.inc(),
        LockEvent::LockWhileHolding => r.core_lock_while_holding.inc(),
        LockEvent::GrantWaiters => r.core_grant_waiters.observe(arg as i64),
        LockEvent::Release => r.core_releases.inc(),
        LockEvent::TimeoutAbort => r.core_timeout_aborts.inc(),
    }
    trace::lock_event(site, event, arg);
}

struct RegistrySink;

impl EventSink for RegistrySink {
    fn record(&self, site: &'static str, event: LockEvent, arg: u64) {
        note(site, event, arg);
    }
}

/// Installs the census sink into `hemlock_core::events`. Idempotent;
/// call it before using `HemlockInstrumented` if you want its events
/// counted (the `Observed<L>` wrapper reports directly and does not need
/// this).
pub fn install() {
    events::install(&RegistrySink);
}

/// Snapshot of the family-wide lock census (the §5.4 characterization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CensusReport {
    /// Total successful acquisitions (lock + try_lock).
    pub acquires: u64,
    /// Acquisitions that found the lock engaged and had to wait.
    pub contended_acquires: u64,
    /// Releases that handed ownership to a waiting successor.
    pub contended_handovers: u64,
    /// `lock()` calls made while the calling thread already held ≥1
    /// observed lock (the paper's "24 instances" census).
    pub lock_while_holding: u64,
    /// Timed acquisitions that gave up at their deadline.
    pub timeout_aborts: u64,
    /// Peak number of locks held simultaneously by any one thread.
    pub max_locks_held: usize,
    /// Peak number of threads simultaneously busy-waiting on one Grant
    /// word (1 ⇒ purely local spinning; the §2.2 multi-waiting degree).
    pub max_grant_waiters: usize,
}

impl fmt::Display for CensusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "acquires:               {}", self.acquires)?;
        writeln!(f, "contended acquires:     {}", self.contended_acquires)?;
        writeln!(f, "contended handovers:    {}", self.contended_handovers)?;
        writeln!(f, "lock-while-holding:     {}", self.lock_while_holding)?;
        writeln!(f, "timeout aborts:         {}", self.timeout_aborts)?;
        writeln!(f, "max locks held:         {}", self.max_locks_held)?;
        write!(f, "max waiters on a Grant: {}", self.max_grant_waiters)
    }
}

/// Reads the census out of the registry's `core.*` metrics.
pub fn report() -> CensusReport {
    let r = registry();
    CensusReport {
        acquires: r.core_acquires.get(),
        contended_acquires: r.core_contended_acquires.get(),
        contended_handovers: r.core_contended_handovers.get(),
        lock_while_holding: r.core_lock_while_holding.get(),
        timeout_aborts: r.core_timeout_aborts.get(),
        max_locks_held: r.core_locks_held.peak().max(0) as usize,
        max_grant_waiters: r.core_grant_waiters.peak().max(0) as usize,
    }
}

/// Zeroes the census (callers must ensure no observed lock is concurrently
/// in use for a meaningful baseline).
pub fn reset() {
    let r = registry();
    r.core_acquires.reset();
    r.core_contended_acquires.reset();
    r.core_contended_handovers.reset();
    r.core_lock_while_holding.reset();
    r.core_timeout_aborts.reset();
    r.core_releases.reset();
    r.core_locks_held.reset();
    r.core_grant_waiters.reset();
}

// The census sink's end-to-end behaviour (install → HemlockInstrumented
// emits → report()) is asserted in the workspace integration test
// `tests/instrumentation.rs`, which owns a whole process — the sink and
// the census counters are process-global, so exercising them here would
// race this crate's other tests.
