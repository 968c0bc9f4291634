//! Figures 6/7: MutexBench on a 2-socket AMD EPYC 7662 (256 logical CPUs,
//! MOESI). "The results on AMD concur with those observed on the Intel
//! system."
//!
//! Without an EPYC machine (see "Hardware substitutions" in
//! docs/ARCHITECTURE.md) we rerun the identical harness on the host (the
//! binaries are the same — the paper likewise reused "the same binaries
//! built on the Intel X5-2 system") and check the concurrence claim
//! structurally: the lock ordering at each thread count must match
//! between two independent runs, echoing the paper's Intel-vs-AMD
//! comparison.

use hemlock_bench::{
    figure_spec, locks_from_args, mutexbench_all, print_series, substitution_note, Sweep,
    FIGURE_LOCKS,
};
use hemlock_harness::Contention;

fn ranking(series: &[(&'static str, Vec<f64>)], point: usize) -> Vec<&'static str> {
    let mut named: Vec<(&str, f64)> = series.iter().map(|(n, v)| (*n, v[point])).collect();
    named.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    named.into_iter().map(|(n, _)| n).collect()
}

fn main() {
    let args = figure_spec("fig6_7", "Figures 6/7: AMD (MOESI) substitution").parse_env();
    let locks = locks_from_args(&args, FIGURE_LOCKS);
    let sweep = Sweep::from_args(&args);
    substitution_note("AMD EPYC testbed → two independent host runs, concurrence check");

    for (title, contention) in [
        (
            "Figure 6 analog: maximum contention (run A)",
            Contention::Maximum,
        ),
        (
            "Figure 7 analog: moderate contention (run A)",
            Contention::Moderate,
        ),
    ] {
        let run_a = mutexbench_all(&locks, &sweep, contention);
        print_series(title, &sweep.threads, &run_a, sweep.csv, "M steps/sec");
        let run_b = mutexbench_all(&locks, &sweep, contention);
        print_series(
            &title.replace("run A", "run B"),
            &sweep.threads,
            &run_b,
            sweep.csv,
            "M steps/sec",
        );
        // Concurrence summary ("results on AMD concur with Intel").
        let points = sweep.threads.len();
        let agree = (0..points)
            .filter(|&p| ranking(&run_a, p)[0] == ranking(&run_b, p)[0])
            .count();
        eprintln!("# Concurrence: top-ranked lock agrees at {agree}/{points} sweep points\n");
    }
}
