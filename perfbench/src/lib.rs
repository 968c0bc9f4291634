//! The Hemlock stack's benchmark: four closed-loop workloads, each
//! loading different layers, measured end to end with nothing added to
//! the program, and again in a separate traced run that times each
//! layer's public surface from outside.
//!
//! See `README.md` in this directory for the workloads, the metric
//! definitions, and which layer metric should move which end-to-end one.

pub mod gen;
pub mod hist;
pub mod lock;
pub mod net;
pub mod phase;
pub mod procfs;
pub mod spy;
pub mod store;
pub mod timed;

use hemlock_core::hemlock::Hemlock;
use hemlock_core::raw::{RawLock, RawTryLock};
use phase::{median, quantile, Plan, Window};
use std::hint::black_box;
use std::time::{Duration, Instant};
use timed::TimedLock;

/// End-to-end metrics (untraced runs), with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("lat_p50_ns", "ns"),
    ("lat_p90_ns", "ns"),
    ("uncontended_ns", "ns"),
    ("lock_bytes", "bytes"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics (traced runs), with their units. A layer the
/// workload bypasses reports 0.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("core.acquires_per_op", "count"),
    ("core.wait_ns.p50", "ns"),
    ("core.wait_ns.p99", "ns"),
    ("core.hold_ns.p50", "ns"),
    ("core.trylock_fail_frac", "ratio"),
    ("core.same_owner_frac", "ratio"),
    ("core.fairness_spread", "ratio"),
    ("shard.acquisitions_per_op", "count"),
    ("shard.contended_frac", "ratio"),
    ("minikv.call_ns.p50", "ns"),
    ("minikv.call_ns.p99", "ns"),
    ("minikv.ops_per_call", "count"),
    ("minikv.freezes_per_s", "1/s"),
    ("minikv.compactions_per_s", "1/s"),
    ("async.pending_per_call", "count"),
    ("net.non_store_frac", "ratio"),
    ("net.server_cpu_ns_per_op", "ns"),
    ("net.client_cpu_ns_per_op", "ns"),
    ("harness.reactor_cpu_frac", "ratio"),
    ("harness.pool_cpu_ns_per_op", "ns"),
    ("harness.idle_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.values_verified", "count"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LockHandoff,
    StoreUniform,
    NetPipelinedHot,
    NetUnpipelined,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LockHandoff,
        Workload::StoreUniform,
        Workload::NetPipelinedHot,
        Workload::NetUnpipelined,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LockHandoff => "lock-handoff",
            Workload::StoreUniform => "store-uniform",
            Workload::NetPipelinedHot => "net-pipelined-hot",
            Workload::NetUnpipelined => "net-unpipelined",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops of the window after which `rss_peak_mb` is read: about five
    /// seconds' worth on a 2-CPU machine.
    fn rss_after_ops(self) -> u64 {
        match self {
            Workload::LockHandoff => 35_000_000,
            Workload::StoreUniform => 1_000_000,
            Workload::NetPipelinedHot => 400_000,
            Workload::NetUnpipelined => 60_000,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median.
    fn setup_reps(self) -> usize {
        match self {
            // Two thread spawns each: cheap, and noisy alone.
            Workload::LockHandoff => 21,
            _ => 5,
        }
    }

    fn measure<L: RawTryLock + 'static>(self, plan: &Plan) -> Window {
        match self {
            Workload::LockHandoff => lock::measure::<L>(plan),
            Workload::StoreUniform => store::measure::<L>(plan),
            Workload::NetPipelinedHot => net::measure::<L>(plan, net::PIPELINED_HOT),
            Workload::NetUnpipelined => net::measure::<L>(plan, net::UNPIPELINED),
        }
    }
}

/// One run's verdict and metrics, in the order of [`END_TO_END`] or
/// [`PER_LAYER`].
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Values whose content was checked (0 would mean no check ran).
    pub verified: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.verified > 0 && self.attempted > 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Times acquire+release pairs on an idle `L` in blocks of 1024.
///
/// The cost of a pair depends on where the lock lies relative to the
/// thread's other data (the loader's address randomisation moves both from
/// run to run, by up to a third of the figure), so a probe sweeps one lock
/// per cache line of a 4 KiB span and takes the median over them. Each
/// lock's figure is its fastest block: the host's other tenants slow a
/// tight loop by up to a quarter at times (on a shared 2-vCPU Xeon virtual
/// machine, the per-lock median of blocks spread 0.15 from run to run,
/// the fastest block 0.05), and nothing but
/// the lock's code makes a block faster. The machine's speed drifts over
/// seconds, so a run probes in slices at different times and reports the
/// fastest slice.
#[derive(Default)]
struct Probe {
    slice_medians: Vec<f64>,
}

/// One lock to a cache line.
#[repr(align(64))]
#[derive(Default)]
struct Line<L>(L);

impl Probe {
    /// Warms up for `warm`, then records blocks for `dur`.
    fn slice<L: RawLock>(&mut self, warm: Duration, dur: Duration) {
        const PAIRS: u32 = 1024;
        const LINES: usize = 4096 / 64;
        let locks: Vec<Line<L>> = (0..LINES).map(|_| Line::default()).collect();
        let from = Instant::now() + warm;
        let end = from + dur;
        let mut blocks = vec![Vec::new(); LINES];
        loop {
            for (line, times) in locks.iter().zip(&mut blocks) {
                let lock = &line.0;
                let t0 = Instant::now();
                for _ in 0..PAIRS {
                    black_box(lock).lock();
                    // SAFETY: acquired on the line above, on this thread.
                    unsafe { black_box(lock).unlock() };
                }
                let t1 = Instant::now();
                if t0 >= from {
                    times.push(t1.duration_since(t0).as_nanos() as f64 / f64::from(PAIRS));
                }
            }
            if Instant::now() >= end && !blocks[0].is_empty() {
                let per_line: Vec<f64> = blocks.iter().map(|b| quantile(b, 0.0)).collect();
                self.slice_medians.push(median(&per_line));
                return;
            }
        }
    }

    /// Nanoseconds per pair: the smallest slice median.
    fn ns(&self) -> f64 {
        self.slice_medians
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// `(max - min) / mean` of the load generators' completed ops.
fn spread(ops: &[u64]) -> f64 {
    let (Some(max), Some(min)) = (ops.iter().max(), ops.iter().min()) else {
        return 0.0;
    };
    let mean = ops.iter().sum::<u64>() as f64 / ops.len() as f64;
    (max - min) as f64 / mean.max(1.0)
}

fn with_units(
    names: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    names
        .iter()
        .map(|&(name, unit)| {
            let v = values.iter().find(|v| v.0 == name).map_or(0.0, |v| v.1);
            (name, if v.is_finite() { v } else { 0.0 }, unit)
        })
        .collect()
}

/// Runs `workload` for `seconds` of measurement.
///
/// Untraced: the end-to-end metrics. Traced: the workload for half the
/// time with `TimedLock` as its lock and the layer probes in place, which
/// gives the per-layer metrics, between two untraced deployments of a
/// quarter of the time each. `bench.trace_overhead_frac` compares the
/// traced throughput with the untraced ones' mean, so a drift of the
/// machine's speed that is steady over the run cancels out.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let window = Duration::from_secs_f64(seconds);
    if !trace {
        let plan = Plan {
            seed,
            window,
            setup_reps: workload.setup_reps(),
            traced: false,
        };
        let slice = Duration::from_secs_f64((seconds * 0.025).clamp(0.01, 0.5));
        let mut probe = Probe::default();
        probe.slice::<Hemlock>(slice / 2, slice);
        let w = workload.measure::<Hemlock>(&plan);
        probe.slice::<Hemlock>(slice / 2, slice);
        let values = [
            ("setup_s", median(&w.setup_s)),
            ("ops_per_s", w.ops_per_s()),
            ("lat_p50_ns", w.lat_quantile(0.50)),
            ("lat_p90_ns", w.lat_quantile(0.90)),
            ("uncontended_ns", probe.ns()),
            ("lock_bytes", w.lock_bytes),
            ("rss_peak_mb", w.peak_rss_after(workload.rss_after_ops())),
        ];
        return Outcome {
            attempted: w.attempted,
            failed: w.failed,
            verified: w.verified,
            metrics: with_units(&END_TO_END, &values),
        };
    }

    let plan = |share: u32, traced| Plan {
        seed,
        window: window / share,
        setup_reps: 1,
        traced,
    };
    let before = workload.measure::<Hemlock>(&plan(4, false));
    let w = workload.measure::<TimedLock<Hemlock>>(&plan(2, true));
    let core = timed::snapshot();
    let after = workload.measure::<Hemlock>(&plan(4, false));
    let untraced_ops_per_s = (before.ops_per_s() + after.ops_per_s()) / 2.0;
    let ops = w.ops().max(1) as f64;
    let verified = before.verified + w.verified + after.verified;
    let mut values = vec![
        ("core.acquires_per_op", core.acquires as f64 / ops),
        ("core.wait_ns.p50", core.wait_ns(0.50)),
        ("core.wait_ns.p99", core.wait_ns(0.99)),
        ("core.hold_ns.p50", core.hold_ns(0.50)),
        (
            "core.trylock_fail_frac",
            core.try_fails as f64 / core.try_attempts.max(1) as f64,
        ),
        (
            "core.same_owner_frac",
            core.same_owner as f64 / core.acquires.max(1) as f64,
        ),
        ("core.fairness_spread", spread(&w.generator_ops)),
        (
            "bench.trace_overhead_frac",
            1.0 - w.ops_per_s() / untraced_ops_per_s.max(1e-9),
        ),
        ("bench.values_verified", verified as f64),
    ];
    values.extend(w.layers.iter().copied());
    Outcome {
        attempted: before.attempted + w.attempted + after.attempted,
        failed: before.failed + w.failed + after.failed,
        verified,
        metrics: with_units(&PER_LAYER, &values),
    }
}
