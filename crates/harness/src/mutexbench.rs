//! The MutexBench benchmark (§5.1).
//!
//! "MutexBench spawns T concurrent threads. Each thread loops as follows:
//! acquire a central lock L; execute a critical section; release L; execute
//! a non-critical section. At the end of a fixed measurement interval the
//! benchmark reports the total number of aggregate iterations completed by
//! all the threads."
//!
//! Two contention regimes, matching Figures 2–7:
//!
//! - **Maximum**: empty critical and non-critical sections ("subjecting the
//!   lock to extreme contention. At just one thread, this configuration
//!   also constitutes a useful benchmark for uncontended latency").
//! - **Moderate**: "the non-critical section generates a uniformly
//!   distributed random value in [0, 400) and steps a thread-local
//!   std::mt19937 PRNG that many steps [...] The critical section advances
//!   a shared random number generator 5 steps."

use crate::measure::Throughput;
use crate::mt19937::Mt19937;
use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use hemlock_core::pad::CachePadded;
use hemlock_core::raw::RawLock;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Contention regime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Contention {
    /// Empty critical and non-critical sections (Figures 2, 4, 6).
    Maximum,
    /// PRNG-stepping sections (Figures 3, 5, 7).
    Moderate,
}

/// Benchmark configuration.
#[derive(Clone, Copy, Debug)]
pub struct MutexBenchConfig {
    /// Concurrent threads contending for the central lock.
    pub threads: usize,
    /// Measurement interval (the paper uses 10 s; scale down for CI).
    pub duration: Duration,
    /// Contention regime.
    pub contention: Contention,
}

/// Critical-section state: the shared PRNG advanced under the lock.
struct SharedSection<L: RawLock> {
    lock: L,
    rng: UnsafeCell<Mt19937>,
}

// Safety: `rng` is only touched while holding `lock`.
unsafe impl<L: RawLock> Sync for SharedSection<L> {}

/// Runs MutexBench with lock algorithm `L`; returns aggregate throughput.
pub fn mutex_bench<L: RawLock>(cfg: MutexBenchConfig) -> Throughput {
    let shared = SharedSection {
        lock: L::default(),
        rng: UnsafeCell::new(Mt19937::new(42)),
    };
    let stop = AtomicBool::new(false);
    let counters: Vec<CachePadded<AtomicU64>> = (0..cfg.threads)
        .map(|_| CachePadded::new(AtomicU64::new(0)))
        .collect();

    // The threads and this one line up before the clock starts, so every
    // thread is running when the interval begins.
    let start_line = Barrier::new(cfg.threads + 1);
    let start = std::thread::scope(|s| {
        for (t, counter) in counters.iter().enumerate() {
            let shared = &shared;
            let stop = &stop;
            let start_line = &start_line;
            s.spawn(move || {
                let mut local = Mt19937::new(0x5EED ^ (t as u32 + 1));
                let mut iters = 0u64;
                start_line.wait();
                while !stop.load(Ordering::Relaxed) {
                    shared.lock.lock();
                    if cfg.contention == Contention::Moderate {
                        // Safety: rng is protected by the central lock.
                        let rng = unsafe { &mut *shared.rng.get() };
                        for _ in 0..5 {
                            rng.next_u32();
                        }
                    }
                    // Safety: this thread holds the lock.
                    unsafe { shared.lock.unlock() };
                    if cfg.contention == Contention::Moderate {
                        let steps = local.below(400);
                        for _ in 0..steps {
                            local.next_u32();
                        }
                    }
                    iters += 1;
                }
                counter.store(iters, Ordering::Release);
            });
        }
        start_line.wait();
        let start = Instant::now();
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Release);
        start
    });
    let elapsed = start.elapsed();

    Throughput {
        ops: counters.iter().map(|c| c.load(Ordering::Acquire)).sum(),
        elapsed,
    }
}

/// Single-threaded acquire/release latency in nanoseconds per pair — the
/// T = 1 point of Figure 2 ("a useful benchmark for uncontended latency").
pub fn uncontended_latency_ns<L: RawLock>(pairs: u64) -> f64 {
    let lock = L::default();
    // Warmup.
    for _ in 0..1_000 {
        lock.lock();
        // Safety: just acquired on this thread.
        unsafe { lock.unlock() };
    }
    let start = Instant::now();
    for _ in 0..pairs {
        lock.lock();
        // Safety: just acquired on this thread.
        unsafe { lock.unlock() };
    }
    start.elapsed().as_nanos() as f64 / pairs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemlock_core::hemlock::{Hemlock, HemlockNaive};
    use hemlock_locks::{McsLock, TicketLock};

    fn quick(contention: Contention, threads: usize) -> MutexBenchConfig {
        MutexBenchConfig {
            threads,
            duration: Duration::from_millis(80),
            contention,
        }
    }

    #[test]
    fn single_thread_makes_progress() {
        let t = mutex_bench::<Hemlock>(quick(Contention::Maximum, 1));
        assert!(t.ops > 1_000, "got only {} iterations", t.ops);
    }

    #[test]
    fn contended_run_makes_progress_all_locks() {
        assert!(mutex_bench::<Hemlock>(quick(Contention::Maximum, 3)).ops > 100);
        assert!(mutex_bench::<HemlockNaive>(quick(Contention::Maximum, 3)).ops > 100);
        assert!(mutex_bench::<McsLock>(quick(Contention::Maximum, 3)).ops > 100);
        assert!(mutex_bench::<TicketLock>(quick(Contention::Maximum, 3)).ops > 100);
    }

    #[test]
    fn moderate_contention_runs() {
        let t = mutex_bench::<Hemlock>(quick(Contention::Moderate, 2));
        assert!(t.ops > 100);
    }

    #[test]
    fn uncontended_latency_is_sane() {
        let ns = uncontended_latency_ns::<Hemlock>(10_000);
        assert!(ns > 0.0 && ns < 100_000.0, "{ns} ns/pair");
    }
}
