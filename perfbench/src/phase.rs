//! Shared closed-loop plumbing: the plan of one deployment, the
//! per-slot window bookkeeping, and the barrier hand-shake that keeps
//! set-up and warm-up out of the measured window.
//!
//! The window is cut into [`SLOTS`] equal slots, and every end-to-end
//! figure is a quartile of its per-slot values, taken on the metric's
//! better side ([`BETTER_SLOTS`]). A stall of the machine (time taken by
//! the host, another tenant's burst) only ever makes a slot worse, so a
//! stall that spoils up to three quarters of the window leaves the figure
//! where it was, while a change of the program moves every slot and
//! therefore the figure too.
//!
//! On a virtual machine the host's share of each slot is known: a
//! [`Sampler`] reads it at every slot boundary, and slots in which the
//! host took more than [`STEAL_OK`] of the CPUs are set aside, as long as
//! [`MIN_SLOTS`] remain. Host phases that last minutes, longer than any
//! window, still leave seconds with little taken in between.

use crate::hist::Hist;
use crate::procfs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Slots per measured window.
pub const SLOTS: u32 = 20;
/// The share of slots that may be better than the reported one.
pub const BETTER_SLOTS: f64 = 0.25;
/// The host's share of a slot's CPU time above which the slot is set
/// aside.
pub const STEAL_OK: f64 = 0.02;
/// The fewest slots the figures are taken over.
pub const MIN_SLOTS: usize = SLOTS as usize / 4;

/// What one deployment of a workload is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub seed: u64,
    pub window: Duration,
    /// The deployment is set up this many times; the first is measured,
    /// the rest only time their set-up, after the window.
    pub setup_reps: usize,
    /// Collect per-layer numbers (the lock type is then a `TimedLock`).
    pub traced: bool,
}

/// Ops and latencies completed within one slot.
#[derive(Clone, Default)]
pub struct Slot {
    pub ops: u64,
    pub lat: Hist,
}

/// What one measured deployment produced.
#[derive(Default)]
pub struct Window {
    /// One entry per set-up repetition.
    pub setup_s: Vec<f64>,
    pub elapsed_s: f64,
    pub slot_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub verified: u64,
    /// Summed over the load generators.
    pub slots: Vec<Slot>,
    /// Ops completed by each load generator (thread or connection).
    pub generator_ops: Vec<u64>,
    pub lock_bytes: f64,
    /// The machine at the end of each slot.
    pub host: Vec<HostSample>,
    /// Layer metrics only this workload can supply (traced runs).
    pub layers: Vec<(&'static str, f64)>,
}

impl Window {
    pub fn ops(&self) -> u64 {
        self.generator_ops.iter().sum()
    }

    /// The slots the figures are taken over: those in which the host took
    /// at most [`STEAL_OK`] of the CPUs, or, when fewer than [`MIN_SLOTS`]
    /// are, the [`MIN_SLOTS`] it took least from.
    fn usable(&self) -> Vec<&Slot> {
        let steal = |i: usize| self.host.get(i).map_or(0.0, |h| h.steal);
        let mut ix: Vec<usize> = (0..self.slots.len()).collect();
        ix.sort_by(|&a, &b| steal(a).total_cmp(&steal(b)));
        let clean = ix.iter().filter(|&&i| steal(i) <= STEAL_OK).count();
        ix.truncate(clean.max(MIN_SLOTS));
        ix.into_iter().map(|i| &self.slots[i]).collect()
    }

    /// Ops completed per second: the upper quartile over usable slots.
    pub fn ops_per_s(&self) -> f64 {
        let per_slot: Vec<f64> = self
            .usable()
            .iter()
            .map(|s| s.ops as f64 / self.slot_s)
            .collect();
        quantile(&per_slot, 1.0 - BETTER_SLOTS)
    }

    /// Each slot's `q`-quantile latency in ns: the lower quartile over
    /// usable slots.
    pub fn lat_quantile(&self, q: f64) -> f64 {
        let per_slot: Vec<f64> = self
            .usable()
            .iter()
            .filter(|s| s.lat.count() > 0)
            .map(|s| s.lat.quantile(q))
            .collect();
        quantile(&per_slot, BETTER_SLOTS)
    }

    /// Peak resident memory once `ops` ops of the window were done: as read
    /// at the end of the first slot by which they were, else at the end.
    /// A fixed amount of work, not of time, so that a store that grows
    /// with its writes does not read as bigger when it got faster.
    pub fn peak_rss_after(&self, ops: u64) -> f64 {
        let mut done = 0;
        for (slot, host) in self.slots.iter().zip(&self.host) {
            done += slot.ops;
            if done >= ops {
                return host.peak_rss_mb;
            }
        }
        self.host
            .last()
            .map_or_else(procfs::peak_rss_mib, |h| h.peak_rss_mb)
    }

    /// Every latency sample of the window in one histogram.
    pub fn lat(&self) -> Hist {
        let mut all = Hist::default();
        for s in &self.slots {
            all.merge(&s.lat);
        }
        all
    }

    /// Folds one generator's tallies in.
    pub fn absorb(&mut self, g: Tally) {
        self.attempted += g.attempted;
        self.failed += g.failed;
        self.verified += g.verified;
        self.generator_ops.push(g.ops);
        self.slot_s = g.slot.as_secs_f64();
        if self.slots.is_empty() {
            self.slots = g.slots;
            return;
        }
        for (a, b) in self.slots.iter_mut().zip(&g.slots) {
            a.ops += b.ops;
            a.lat.merge(&b.lat);
        }
    }
}

/// One load generator's tallies for the window.
pub struct Tally {
    start: Instant,
    slot: Duration,
    pub attempted: u64,
    pub failed: u64,
    pub verified: u64,
    pub ops: u64,
    slots: Vec<Slot>,
}

impl Tally {
    pub fn new(start: Instant, plan: &Plan) -> Self {
        Self {
            start,
            slot: plan.window / SLOTS,
            attempted: 0,
            failed: 0,
            verified: 0,
            ops: 0,
            slots: vec![Slot::default(); SLOTS as usize],
        }
    }

    fn slot_at(&mut self, at: Instant) -> Option<&mut Slot> {
        let ix = at.duration_since(self.start).as_nanos() / self.slot.as_nanos().max(1);
        self.slots.get_mut(ix as usize)
    }

    /// `ops` ops completed at `at`. Completions after the window count
    /// only in `ops`.
    pub fn completed(&mut self, ops: u64, at: Instant) {
        self.ops += ops;
        if let Some(slot) = self.slot_at(at) {
            slot.ops += ops;
        }
    }

    /// `weight` latency samples of `lat_ns` each, ended at `at`.
    pub fn latency(&mut self, at: Instant, lat_ns: u64, weight: u64) {
        if let Some(slot) = self.slot_at(at) {
            slot.lat.record_n(lat_ns, weight);
        }
    }
}

/// The machine at the end of one slot, as a [`Sampler`] read it.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSample {
    /// Share of the CPUs' time the host took during the slot.
    pub steal: f64,
    /// Peak resident memory of the process so far, in MiB.
    pub peak_rss_mb: f64,
}

/// Reads a [`HostSample`] at every slot boundary of a window, on a
/// thread of its own that sleeps in between.
pub struct Sampler(std::thread::JoinHandle<Vec<HostSample>>);

impl Sampler {
    /// Starts sampling the window of `plan` that opened at `start`.
    pub fn start(start: Instant, plan: &Plan) -> Self {
        let slot = plan.window / SLOTS;
        Self(std::thread::spawn(move || {
            let mut last = procfs::steal_ticks();
            (1..=SLOTS)
                .map(|i| {
                    let end = start + slot * i;
                    std::thread::sleep(end.saturating_duration_since(Instant::now()));
                    let now = procfs::steal_ticks();
                    let steal = procfs::steal_share(last, now).unwrap_or(0.0);
                    last = now;
                    HostSample {
                        steal,
                        peak_rss_mb: procfs::peak_rss_mib(),
                    }
                })
                .collect()
        }))
    }

    /// Waits for the window's last slot; returns one sample per slot.
    pub fn finish(self) -> Vec<HostSample> {
        self.0.join().expect("host sampler panicked")
    }
}

/// Barrier hand-shake between the main thread and `workers` load threads:
/// workers warm up, then [`Phase::enter`]; the main thread times set-up
/// until all of them got there, opens the window, and later stops it.
pub struct Phase {
    ready: Barrier,
    go: Barrier,
    stop: AtomicBool,
    start: OnceLock<Instant>,
}

impl Phase {
    pub fn new(workers: usize) -> Self {
        Self {
            ready: Barrier::new(workers + 1),
            go: Barrier::new(workers + 1),
            stop: AtomicBool::new(false),
            start: OnceLock::new(),
        }
    }

    /// Worker side: waits for the window to open and returns its start.
    pub fn enter(&self) -> Instant {
        self.ready.wait();
        self.go.wait();
        *self.start.get().expect("set before the go barrier")
    }

    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Main side: returns once every worker finished warming up.
    pub fn await_ready(&self) {
        self.ready.wait();
    }

    /// Main side: opens the window (`measure`) or releases the workers
    /// straight to their exit; returns the window's start.
    pub fn open(&self, measure: bool) -> Instant {
        let start = Instant::now();
        self.start.set(start).expect("opened once");
        if !measure {
            self.stop.store(true, Ordering::SeqCst);
        }
        self.go.wait();
        start
    }

    pub fn close(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// The `q`-quantile of `v` (`0 <= q <= 1`), interpolated linearly
/// between the two nearest ranks; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A window of `ops.len()` one-second slots.
    fn window(ops: &[u64], steal: &[f64]) -> Window {
        Window {
            slot_s: 1.0,
            slots: ops
                .iter()
                .map(|&ops| Slot {
                    ops,
                    ..Slot::default()
                })
                .collect(),
            host: steal
                .iter()
                .enumerate()
                .map(|(i, &steal)| HostSample {
                    steal,
                    peak_rss_mb: i as f64,
                })
                .collect(),
            ..Window::default()
        }
    }

    #[test]
    fn stolen_slots_are_set_aside_while_enough_remain() {
        // Eight clean slots at 100..=107 ops; twelve stolen ones at 1000.
        let mut ops: Vec<u64> = (100..108).collect();
        ops.extend([1000; 12]);
        let mut steal = vec![0.0; 8];
        steal.extend([0.3; 12]);
        let w = window(&ops, &steal);
        assert_eq!(w.ops_per_s(), 105.25);

        // Only three clean slots: the two least stolen join them.
        let steal = [0.0, 0.0, 0.0, 0.1, 0.05, 0.5, 0.5, 0.5];
        let w = window(&[10, 20, 30, 40, 50, 1000, 1000, 1000], &steal);
        assert_eq!(w.ops_per_s(), 40.0);
    }

    #[test]
    fn rss_is_read_after_a_fixed_number_of_ops() {
        let w = window(&[10, 10, 10, 10], &[0.0; 4]);
        assert_eq!(w.peak_rss_after(15), 1.0);
        assert_eq!(w.peak_rss_after(40), 3.0);
        assert_eq!(w.peak_rss_after(1000), 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
