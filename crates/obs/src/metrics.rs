//! Scalar metric primitives: sharded counters and peak-tracking gauges.
//!
//! Both are `const`-constructible so the whole [registry](mod@crate::registry)
//! lives in one `static` with zero startup cost, and both are written with
//! relaxed atomics only — a metric update is never a synchronization point.

use hemlock_core::pad::CachePadded;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of counter stripes. Must be a power of two.
const STRIPES: usize = 8;

/// Returns this thread's stripe index (assigned round-robin on first use,
/// so threads spread across stripes instead of hashing onto few of them).
#[inline]
fn stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
    }
    STRIPE.with(|s| *s)
}

/// A monotonically increasing event counter, striped across cache lines so
/// concurrent writers from different threads do not contend on one word.
/// Reads ([`Counter::get`]) sum the stripes and are exact with respect to
/// completed increments.
pub struct Counter {
    stripes: [CachePadded<AtomicU64>; STRIPES],
}

impl Counter {
    /// A zeroed counter (const, for `static` registries).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(0));
        Self {
            stripes: [ZERO; STRIPES],
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe()].fetch_add(n, Ordering::Relaxed);
    }

    /// Current total (sum over stripes).
    pub fn get(&self) -> u64 {
        self.stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Zeroes every stripe.
    pub fn reset(&self) {
        for s in &self.stripes {
            s.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A level gauge (current value + high-water mark). `inc`/`dec` track a
/// depth-style quantity; [`Gauge::observe`] feeds a value whose *peak* is
/// the interesting statistic (e.g. the §5.4 max-grant-waiters census).
pub struct Gauge {
    cur: AtomicI64,
    peak: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge (const, for `static` registries).
    pub const fn new() -> Self {
        Self {
            cur: AtomicI64::new(0),
            peak: AtomicI64::new(0),
        }
    }

    /// Raises the peak to `v` if `v` exceeds it. The load spares the
    /// shared word a read-modify-write below the peak; skipping is exact
    /// because the peak only rises between resets.
    #[inline]
    fn raise_peak(&self, v: i64) {
        if v > self.peak.load(Ordering::Relaxed) {
            self.peak.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Raises the level by one, updating the peak.
    #[inline]
    pub fn inc(&self) {
        let now = self.cur.fetch_add(1, Ordering::Relaxed) + 1;
        self.raise_peak(now);
    }

    /// Lowers the level by one.
    #[inline]
    pub fn dec(&self) {
        self.cur.fetch_sub(1, Ordering::Relaxed);
    }

    /// Raises the level by `n`, updating the peak (a pipelined burst
    /// arrives as one unit).
    #[inline]
    pub fn add(&self, n: i64) {
        let now = self.cur.fetch_add(n, Ordering::Relaxed) + n;
        self.raise_peak(now);
    }

    /// Lowers the level by `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.cur.fetch_sub(n, Ordering::Relaxed);
    }

    /// Feeds a sampled value into the peak without touching the level.
    #[inline]
    pub fn observe(&self, v: i64) {
        self.raise_peak(v);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cur.load(Ordering::Relaxed)
    }

    /// High-water mark since the last reset.
    pub fn peak(&self) -> i64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Zeroes both level and peak.
    pub fn reset(&self) {
        self.cur.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_across_threads_exactly() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_add_sums() {
        let c = Counter::new();
        c.add(5);
        c.add(7);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 3);
        g.observe(10);
        assert_eq!(g.peak(), 10);
        assert_eq!(g.get(), 2, "observe must not move the level");
        g.reset();
        assert_eq!((g.get(), g.peak()), (0, 0));
    }

    #[test]
    fn gauge_peak_is_the_maximum_of_concurrent_observers() {
        let per: i64 = if cfg!(miri) { 200 } else { 100_000 };
        let g = Gauge::new();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4i64 {
                let (g, start) = (&g, &start);
                s.spawn(move || {
                    start.wait();
                    // Disjoint values that interleave, so the threads race
                    // to raise the peak until the very end.
                    for i in 0..per {
                        g.observe(i * 4 + t);
                    }
                });
            }
        });
        assert_eq!(g.peak(), per * 4 - 1);
        g.reset();
        g.observe(3);
        assert_eq!(g.peak(), 3, "a reset peak rises again");
    }

    #[test]
    fn gauge_concurrent_inc_dec_balances() {
        let g = Gauge::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let g = &g;
                s.spawn(move || {
                    for _ in 0..5_000 {
                        g.inc();
                        g.dec();
                    }
                });
            }
        });
        assert_eq!(g.get(), 0);
        assert!(g.peak() >= 1 && g.peak() <= 4);
    }
}
