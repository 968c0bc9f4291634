//! Latency histogram with buckets under 1% wide.
//!
//! Values below 128 are counted exactly; above, every power-of-two octave
//! is split into 128 linear sub-buckets, so a bucket spans at most 1/128
//! (0.78%) of its lower edge. Percentiles therefore move in sub-1% steps,
//! where a 4-sub-bucket log histogram jumps by 25%.

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift + 1) as usize) << SUB_BITS) + ((v >> shift) as usize - SUB)
}

/// Midpoint of bucket `i`.
fn value_at(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let shift = (i >> SUB_BITS) - 1;
    let lower = (((i & (SUB - 1)) + SUB) as u64) << shift;
    lower as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

/// A single-owner histogram.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0.0,
        }
    }
}

impl Hist {
    /// Records `n` samples of value `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        self.counts[index(v)] += n;
        self.total += n;
        self.sum += v as f64 * n as f64;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Removes `earlier`, a copy this histogram has grown from.
    pub fn subtract(&mut self, earlier: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&earlier.counts) {
            *a -= b;
        }
        self.total -= earlier.total;
        self.sum -= earlier.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`): the value of the sample at rank
    /// `ceil(q * count)`, to within its bucket. 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value_at(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// A histogram several threads record into with relaxed atomics.
pub struct AtomicHist {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl Default for AtomicHist {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHist {
    pub fn record(&self, v: u64) {
        self.counts[index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// [`AtomicHist::record`] for a histogram only the calling thread
    /// writes: plain loads and stores instead of read-modify-writes.
    pub fn record_single_writer(&self, v: u64) {
        let c = &self.counts[index(v)];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.sum
            .store(self.sum.load(Ordering::Relaxed) + v, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> Hist {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        Hist {
            total: counts.iter().sum(),
            counts,
            sum: self.sum.load(Ordering::Relaxed) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            123_456,
            u64::MAX / 3,
        ] {
            let i = index(v);
            let mid = value_at(i);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 128.0 + 0.5,
                "{v} -> {mid}"
            );
            assert!(index(v.saturating_add(1)) <= i + 1);
        }
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_follow_ranks() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record_n(v, 1);
        }
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.mean(), 50.5);
        let a = AtomicHist::default();
        a.record(5000);
        let s = a.snapshot();
        assert_eq!(s.count(), 1);
        assert!((s.quantile(0.5) - 5000.0).abs() < 5000.0 / 128.0);
    }
}
