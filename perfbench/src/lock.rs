//! `lock-handoff`: the paper's MutexBench shape on one lock. Two threads
//! acquire and release it back to back with an empty critical section,
//! so the time per operation is the hand-off itself.
//!
//! Latency is the time a `lock` call takes to return, sampled once every
//! [`SAMPLE_EVERY`] acquisitions: how long a thread waits for the other's
//! critical section and the hand-off, a figure throughput alone does not
//! give (a hand-off that starves one thread in turns can keep throughput
//! and still raise the tail).
//!
//! The critical section checks mutual exclusion: it marks itself as the
//! owner and bumps a plain counter, and any overlapping owner or lost
//! counter update is a failed operation.

use crate::phase::{Phase, Plan, Sampler, Tally, Window};
use crate::timed;
use hemlock_core::raw::RawLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

pub const THREADS: usize = 2;
/// Acquire+release pairs between two reads of the window clock.
const BLOCK: u64 = 1024;
/// One acquisition in this many is timed.
const SAMPLE_EVERY: u64 = 128;
const SAMPLES: usize = (BLOCK / SAMPLE_EVERY) as usize;
/// How long the threads run together before the window opens. A fixed
/// time, not a pair count: on a shared machine a descheduled thread lets
/// the other run pairs alone at several times the contended rate. It is
/// a constant of the benchmark, so it is not part of `setup_s`.
const WARMUP: Duration = Duration::from_millis(100);

/// The lock and the critical section's data, on one cache line as in a
/// real guarded object.
#[repr(align(128))]
#[derive(Default)]
struct Arena<L> {
    lock: L,
    owner: AtomicU64,
    count: AtomicU64,
}

impl<L: RawLock> Arena<L> {
    /// The critical section of thread `me` (non-zero); returns how many
    /// exclusion violations it saw.
    #[inline]
    fn critical(&self, me: u64) -> u64 {
        let mut bad = u64::from(self.owner.load(Ordering::Relaxed) != 0);
        self.owner.store(me, Ordering::Relaxed);
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        bad += u64::from(self.owner.load(Ordering::Relaxed) != me);
        self.owner.store(0, Ordering::Relaxed);
        bad
    }

    /// [`BLOCK`] acquire+release pairs by thread `me`, timing every
    /// [`SAMPLE_EVERY`]th acquisition into `waits`; returns the exclusion
    /// violations seen.
    #[inline]
    fn block(&self, me: u64, waits: &mut [u64; SAMPLES]) -> u64 {
        let mut bad = 0;
        for i in 0..BLOCK {
            if i % SAMPLE_EVERY == 0 {
                let t0 = Instant::now();
                self.lock.lock();
                waits[(i / SAMPLE_EVERY) as usize] = t0.elapsed().as_nanos() as u64;
            } else {
                self.lock.lock();
            }
            bad += self.critical(me);
            // SAFETY: acquired above on this thread.
            unsafe { self.lock.unlock() };
        }
        bad
    }
}

struct WorkerOut {
    tally: Tally,
    violations: u64,
    pairs: u64,
}

/// Returns `None` for a deployment that is only set up (already stopped).
fn worker<L: RawLock>(
    arena: &Arena<L>,
    spawned: &Barrier,
    phase: &Phase,
    plan: &Plan,
    me: u64,
) -> Option<WorkerOut> {
    spawned.wait();
    if phase.stopped() {
        return None;
    }
    let (mut violations, mut warmup) = (0, 0);
    let mut waits = [0; SAMPLES];
    let warm_until = Instant::now() + WARMUP;
    while Instant::now() < warm_until {
        violations += arena.block(me, &mut waits);
        warmup += BLOCK;
    }
    let start = phase.enter();
    let mut tally = Tally::new(start, plan);
    while !phase.stopped() {
        violations += arena.block(me, &mut waits);
        let now = Instant::now();
        tally.completed(BLOCK, now);
        for &w in &waits {
            tally.latency(now, w, 1);
        }
    }
    tally.attempted = tally.ops;
    tally.verified = tally.ops;
    Some(WorkerOut {
        pairs: warmup + tally.ops,
        tally,
        violations,
    })
}

pub fn measure<L: RawLock>(plan: &Plan) -> Window {
    let mut w = Window::default();
    for rep in 0..plan.setup_reps {
        let measured = rep == 0;
        let t0 = Instant::now();
        let arena = Arena::<L>::default();
        let spawned = Barrier::new(THREADS + 1);
        let phase = Phase::new(THREADS);
        if !measured {
            phase.close();
        }
        let outs: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (1..=THREADS as u64)
                .map(|me| {
                    let (arena, spawned, phase) = (&arena, &spawned, &phase);
                    s.spawn(move || worker(arena, spawned, phase, plan, me))
                })
                .collect();
            spawned.wait();
            w.setup_s.push(t0.elapsed().as_secs_f64());
            if measured {
                phase.await_ready();
                let start = phase.open(true);
                timed::set_recording(plan.traced);
                w.host = Sampler::start(start, plan).finish();
                phase.close();
                timed::set_recording(false);
                w.elapsed_s = start.elapsed().as_secs_f64();
            }
            handles
                .into_iter()
                .filter_map(|h| h.join().expect("lock worker panicked"))
                .collect()
        });
        if measured {
            let pairs: u64 = outs.iter().map(|o| o.pairs).sum();
            let lost = pairs.abs_diff(arena.count.load(Ordering::Relaxed));
            for o in outs {
                w.failed += o.violations;
                w.absorb(o.tally);
            }
            w.failed += lost;
        }
    }
    w.lock_bytes = L::META.footprint_bytes(1, THREADS) as f64;
    w
}
