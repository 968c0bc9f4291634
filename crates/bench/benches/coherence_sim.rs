//! Criterion: throughput of the coherence simulator itself (simulated
//! operations per second for a Table 2 row), and of the model checker's
//! exhaustive exploration — the substrates' own performance.

use criterion::{criterion_group, criterion_main, Criterion};
use hemlock_coherence::{table2_row, Protocol, Table2Algo};
use hemlock_model::explore_proto;
use hemlock_simlock::algos::{HemlockFlavor, HemlockSim};
use hemlock_simlock::{LockSim, Program, ProtoWorld};
use std::time::Duration;

fn sim_row(c: &mut Criterion) {
    c.benchmark_group("coherence_sim")
        .bench_function("table2_row_hemlock_8t_50r", |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                table2_row(Table2Algo::Hemlock, 8, 50, Protocol::Mesif, seed)
            })
        });
}

fn model_explore(c: &mut Criterion) {
    c.benchmark_group("model_checker")
        .bench_function("explore_2threads_1round", |b| {
            b.iter(|| {
                let world = ProtoWorld::new(LockSim::new(
                    HemlockSim::new(2, 1, HemlockFlavor::Ctr),
                    vec![Program::lock_unlock(0, 0, 0, 1); 2],
                ));
                explore_proto(world, 500_000)
            })
        });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = sim_row, model_explore
}
criterion_main!(benches);
