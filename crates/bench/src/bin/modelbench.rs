//! Model-checking driver for the paper's §3 lock machines and the post-seed
//! protocols: exhaustive small-scope exploration plus seeded long-horizon
//! random-walk simulation, over one substrate.
//!
//! For every scenario in [`paper_scenarios`] and [`post_seed_scenarios`]:
//! (1) explore the full state space and require `exhaustive == true` with
//! zero violations; (2) drive the same machine under every committed seed
//! for `--min-steps` scheduler steps (default 250k × 4 seeds = 1M steps per
//! scenario), checking every invariant after every step. Output is
//! machine-readable `key=value` lines (the CI `model-check` job uploads
//! them as the run's summary artifact), closed by a table of each
//! scenario's scope: states, terminal states, walk steps, completed runs
//! and seconds. The exit code is non-zero on any violation, budget
//! exhaustion, or liveness failure.
//!
//! Run with: `cargo run --release --bin modelbench`

use hemlock_harness::Spec;
use hemlock_model::{paper_scenarios, post_seed_scenarios};
use std::time::Instant;

/// Committed seed list: every CI run walks the same schedules, so a failure
/// here is reproducible with `check_proto_random_run(make_world, SEED,
/// MIN_STEPS)`. The values are arbitrary but fixed (first four digits
/// groups of pi, phi, sqrt2, e).
const SEEDS: [u64; 4] = [31_415_926, 16_180_339, 14_142_135, 27_182_818];

fn main() {
    let args = Spec::new(
        "modelbench",
        "exhaustive + long-horizon model checking of the §3 locks and the post-seed protocols",
    )
    .value("max-states", "state budget for the exhaustive exploration")
    .value(
        "min-steps",
        "random-walk scheduler steps per scenario per seed",
    )
    .flag("quick", "smoke-test preset (small budgets)")
    .parse_env();

    let quick = args.has("quick");
    let max_states = args.get("max-states", if quick { 200_000 } else { 3_000_000 });
    let min_steps = args.get("min-steps", if quick { 20_000u64 } else { 250_000 });

    let mut failed = false;
    let mut rows = Vec::new();
    for s in paper_scenarios().into_iter().chain(post_seed_scenarios()) {
        let started = Instant::now();
        let report = s.explore(max_states);
        let explore_secs = started.elapsed().as_secs_f64();
        let clean = report.clean() && report.exhaustive;
        println!(
            "modelbench scenario={} protocol={} phase=explore states={} terminal={} \
             exhaustive={} violations={} clean={} secs={explore_secs:.3}",
            s.name,
            s.protocol,
            report.states,
            report.terminal_states,
            report.exhaustive,
            report.violations.len(),
            clean,
        );
        for v in &report.violations {
            println!("modelbench scenario={} violation={v}", s.name);
        }
        failed |= !clean;

        let mut total_steps = 0u64;
        let mut total_runs = 0u64;
        for seed in SEEDS {
            let walk_started = Instant::now();
            let run = s.random_run(seed, min_steps);
            println!(
                "modelbench scenario={} phase=random seed={seed} steps={} runs={} clean={} \
                 secs={:.3}",
                s.name,
                run.steps,
                run.completed_runs,
                run.clean(),
                walk_started.elapsed().as_secs_f64(),
            );
            if let Some(v) = &run.violation {
                println!("modelbench scenario={} seed={seed} violation={v}", s.name);
                failed = true;
            }
            total_steps += run.steps;
            total_runs += run.completed_runs;
        }
        let secs = started.elapsed().as_secs_f64();
        println!(
            "modelbench scenario={} phase=summary invariants={:?} total_steps={total_steps} \
             total_runs={total_runs} secs={secs:.3}",
            s.name, s.invariants,
        );
        rows.push((
            s.name,
            report.states,
            report.terminal_states,
            total_steps,
            total_runs,
            secs,
        ));
    }

    println!();
    println!(
        "| {:<22} | {:>9} | {:>8} | {:>10} | {:>9} | {:>7} |",
        "scenario", "states", "terminal", "walk steps", "runs", "seconds"
    );
    println!(
        "|{:-<24}|{:->11}|{:->10}|{:->12}|{:->11}|{:->9}|",
        "", "", "", "", "", ""
    );
    for (name, states, terminal, steps, runs, secs) in rows {
        println!(
            "| {name:<22} | {states:>9} | {terminal:>8} | {steps:>10} | {runs:>9} | {secs:>7.2} |"
        );
    }
    println!();

    if failed {
        eprintln!("modelbench: FAILED (see violations above)");
        std::process::exit(1);
    }
    println!("modelbench: OK — all scenarios exhaustive and all seeded walks clean");
}
