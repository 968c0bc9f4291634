//! Machine-checking the paper's Section 3 theorems on small configurations,
//! and reconstructing the Figure 1 multi-waiting junction.
//!
//! Run with: `cargo run --release --example model_check`

use hemlock_model::{build_junction, drain_junction, explore_proto, spin_census};
use hemlock_simlock::algos::{ClhSim, HemlockFlavor, HemlockSim, McsSim, TicketSim};
use hemlock_simlock::{LockAlgorithm, LockSim, Program, ProtoWorld};

fn check<A: LockAlgorithm + Clone>(algo: A) {
    let name = algo.name();
    let programs = vec![Program::lock_unlock(0, 1, 0, 2); 2];
    let report = explore_proto(ProtoWorld::new(LockSim::new(algo, programs)), 500_000);
    println!(
        "  {name:<10} {} states, {} terminal, exhaustive: {}, violations: {}",
        report.states,
        report.terminal_states,
        report.exhaustive,
        report.violations.len()
    );
    assert!(report.clean(), "{name}: {:?}", report.violations);
    assert!(report.exhaustive);
}

fn main() {
    println!("Exhaustive interleaving exploration (2 threads, 1 lock, 2 rounds each):");
    println!("  checking: mutual exclusion (Thm 2), FIFO (Thm 8), fere-local spinning (Thm 10), deadlock-freedom");
    check(HemlockSim::new(2, 1, HemlockFlavor::Ctr));
    check(HemlockSim::new(2, 1, HemlockFlavor::Naive));
    check(McsSim::new(2, 1));
    check(ClhSim::new(2, 1));
    check(TicketSim::new(2, 1));

    println!("\nFigure 1 junction (thread E holding k locks, k waiters on its one Grant word):");
    for k in 1..=4 {
        let mut junction = build_junction(k, HemlockFlavor::Ctr);
        let census = spin_census(&junction.world);
        println!(
            "  k = {k}: census on holder's Grant = {} (Theorem 10 bound = {k})",
            census[0]
        );
        assert_eq!(census[0], k);
        let correct = drain_junction(&mut junction);
        println!("         drained: {correct}/{k} hand-overs woke the right waiter");
        assert_eq!(correct, k);
    }
    println!("\nmodel_check OK — all checked properties hold");
}
