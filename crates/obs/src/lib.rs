//! # hemlock-obs
//!
//! Zero-dependency observability for the Hemlock workspace: one metrics
//! registry, one histogram type, one event ring per thread — threaded
//! through every layer from the core lock protocols to the networked KV
//! server.
//!
//! The paper's value proposition is *measured* behaviour (the §5.4
//! censuses: contended acquires, grant waiters, multi-hold degree); this
//! crate makes those measurements available from a live system instead of
//! a one-off bench rerun.
//!
//! ## Pieces
//!
//! - [`mod@registry`] — every metric in the workspace, centrally declared as
//!   one `static` of sharded [`metrics::Counter`]s, peak-tracking
//!   [`metrics::Gauge`]s, and atomic [`hist::AtomicHist`]s. Snapshots
//!   render to the line-oriented text the `STATS` wire opcode returns and
//!   flatten into `RecordBuilder` extras for the bench trajectory.
//! - [`hist`] — [`Hist`], the log-bucketed mergeable histogram promoted
//!   from the bench harness (which now re-exports it), plus the
//!   percentile-set extraction ([`Pcts`]) all bench bins share.
//! - [`census`] — [`census::note`], the one entry point for lock events:
//!   it aggregates them into `core.*` metrics and writes them into the
//!   trace rings; its sink plugs into `hemlock_core::events`.
//! - [`observed`] — the generic [`Observed<L>`](observed::Observed) lock
//!   wrapper (catalog key `obs.hemlock`).
//! - [`mod@trace`] — sampled request-scoped causal tracing: span API,
//!   per-thread checksummed rings that also hold every lock event, and a
//!   Chrome-trace / Perfetto JSON exporter, with the same
//!   one-relaxed-load disabled cost contract.
//!
//! ## Cost discipline
//!
//! Observability defaults **on** (a live `kvserver` answers `STATS`
//! without any flag), and every hook is gated on [`enabled`] — a single
//! relaxed load — so [`set_enabled`]`(false)` reduces the entire
//! subsystem to untaken branches. CI gates the enabled-vs-disabled
//! throughput delta of the shardkv and loadgen benches at 10%, and the
//! `obs_overhead` test holds the disabled `Observed` wrapper to <5% on
//! uncontended lock/unlock.

#![deny(missing_docs)]

pub mod census;
pub mod hist;
pub mod metrics;
pub mod observed;
pub mod registry;
pub mod trace;

pub use hist::{Hist, Pcts};
pub use observed::{ObsTag, Observed, ObservedHemlock};
pub use registry::{registry, Registry, Snapshot};
pub use trace::now_ns;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is observability collection enabled? One relaxed load; every hook in
/// the workspace checks this first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide. Defaults to on; benches pass
/// `--obs off` to measure the disabled fast path.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Convenience initializer for servers and bins: installs the census sink
/// so `HemlockInstrumented` events are counted. Idempotent.
pub fn init() {
    census::install();
}

/// Serializes this crate's tests that change trace sampling, reset the
/// trace rings, or read ring contents (all process-wide state).
#[cfg(test)]
fn ring_tests() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_by_default() {
        // Other tests must not toggle the global flag (the overhead
        // integration test owns a process and does it there).
        assert!(super::enabled());
    }
}
