//! Scripted scenarios from the paper's §2.2 object-graph discussion
//! (Figure 1): multi-waiting junctions, and the hand-over-hand pattern that
//! does *not* multi-wait.
//!
//! The interesting structure in Figure 1 is a thread (E) that holds several
//! contended locks at once: the lead waiter of *each* of those queues spins
//! on E's single Grant word, forming a junction of in-degree > 1 in the
//! waits-on graph. [`build_junction`] reconstructs exactly that shape and
//! freezes the world there so tests can census it; [`drain_junction`]
//! releases the locks and verifies address-based disambiguation wakes the
//! right waiter each time.

use hemlock_simlock::algos::{HemlockFlavor, HemlockSim};
use hemlock_simlock::{LockAlgorithm, LockSim, Meta, Program, ProtoWorld};

/// A frozen multi-waiting configuration: thread 0 holds locks `0..k`, and
/// thread `i` (for `i` in `1..=k`) busy-waits for lock `i-1` on thread 0's
/// Grant word.
pub struct Junction {
    /// The frozen world.
    pub world: ProtoWorld<LockSim<HemlockSim>>,
    /// Number of locks held by the junction thread (= waiters spinning).
    pub k: usize,
}

/// Builds the Figure 1 junction with `k` locks (E = thread 0).
pub fn build_junction(k: usize, flavor: HemlockFlavor) -> Junction {
    assert!(k >= 1);
    let threads = k + 1;
    let algo = HemlockSim::new(threads, k, flavor);
    let mut programs = vec![Program::multiwait_leader(k, 1)];
    for lock in 0..k {
        programs.push(Program::lock_unlock(lock, 0, 0, 1));
    }
    let mut world = ProtoWorld::new(LockSim::new(algo, programs));

    // Drive the holder until it owns all k locks (uncontended: k swaps).
    let mut guard = 0;
    while world.threads[0].state.holding().len() < k {
        world.step(0);
        guard += 1;
        assert!(guard < 10_000, "holder failed to take {k} locks");
    }

    // Drive each waiter until it busy-waits on the holder's Grant word.
    let grant0 = world.proto.algo().grant_word(0).unwrap();
    for tid in 1..=k {
        let mut guard = 0;
        loop {
            if let Some((_, Meta::SpinWait { loc, .. })) = world.threads[tid].pending {
                assert_eq!(loc, grant0, "waiter {tid} must spin on the holder");
                break;
            }
            world.step(tid);
            guard += 1;
            assert!(guard < 10_000, "waiter {tid} failed to start spinning");
        }
    }
    Junction { world, k }
}

/// Census of busy-waiting: for each thread, how many **other** threads are
/// spinning on its Grant word (with their wait condition still
/// unsatisfied) — the §2.2 multi-waiting degree.
pub fn spin_census(world: &ProtoWorld<LockSim<HemlockSim>>) -> Vec<usize> {
    (0..world.thread_count())
        .map(|u| world.proto.grant_spinners(u, &world.mem, &world.threads))
        .collect()
}

/// Releases the junction's locks (descending, as in Figure 9's leader) and
/// checks that each hand-over wakes exactly the waiter of that lock —
/// "the outgoing owner writes the lock address into its own grant field to
/// disambiguate" (§1). Returns the number of correct hand-overs observed.
pub fn drain_junction(j: &mut Junction) -> usize {
    let mut correct = 0;
    let mut steps = 0u64;
    while !j.world.all_finished() {
        for tid in 0..j.world.thread_count() {
            let held = j.world.threads[tid].state.holding().len();
            j.world.step(tid);
            let holding = j.world.threads[tid].state.holding();
            if tid > 0 && holding.len() > held {
                // Waiter `i` waits for lock `i-1` and nothing else.
                assert_eq!(
                    holding,
                    [tid - 1],
                    "wrong waiter woken: thread {tid} got locks {holding:?}"
                );
                correct += 1;
            }
        }
        steps += 1;
        assert!(steps < 1_000_000, "junction failed to drain");
    }
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn junction_census_equals_locks_held() {
        // Theorem 10's bound is tight: k locks held ⇒ k threads spinning on
        // one Grant word.
        for k in 1..=4 {
            let j = build_junction(k, HemlockFlavor::Ctr);
            let census = spin_census(&j.world);
            assert_eq!(census[0], k, "junction of degree {k}");
            // But never *above* the bound:
            assert_eq!(j.world.check_now(), Ok(()));
        }
    }

    #[test]
    fn junction_census_naive_flavor() {
        let j = build_junction(3, HemlockFlavor::Naive);
        assert_eq!(spin_census(&j.world)[0], 3);
    }

    #[test]
    fn junction_drains_to_the_right_waiters() {
        for k in 1..=4 {
            let mut j = build_junction(k, HemlockFlavor::Ctr);
            assert_eq!(drain_junction(&mut j), k);
        }
    }

    #[test]
    fn hand_over_hand_never_multiwaits() {
        // §2.2: "common usage patterns such as hand-over-hand 'coupled'
        // locking do not result in multi-waiting." Three threads chase each
        // other across 4 locks; the census must never exceed 1.
        use hemlock_simlock::SplitMix64;
        for seed in 0..10u64 {
            let algo = HemlockSim::new(3, 4, HemlockFlavor::Ctr);
            let programs = vec![
                Program::hand_over_hand(4, 3),
                Program::hand_over_hand(4, 3),
                Program::hand_over_hand(4, 3),
            ];
            let mut world = ProtoWorld::new(LockSim::new(algo, programs));
            let mut rng = SplitMix64::new(seed);
            let mut steps = 0u64;
            while !world.all_finished() {
                world.step(world.random_live(&mut rng));
                let census = spin_census(&world);
                assert!(
                    census.iter().all(|&c| c <= 1),
                    "multi-waiting under hand-over-hand: {census:?}"
                );
                steps += 1;
                assert!(steps < 2_000_000);
            }
        }
    }
}
