//! Figures 4/5: MutexBench on SPARC T7-2 (512 logical CPUs, MOESI,
//! MONITOR-MWAIT-based CTR).
//!
//! Without SPARC hardware (see "Hardware substitutions" in
//! docs/ARCHITECTURE.md) this binary demonstrates the two things those
//! figures add over Figures 2/3:
//!
//! 1. **Portability** — the identical harness runs unmodified on this
//!    host's ISA (the paper's point is that Hemlock is not
//!    Intel-specific);
//! 2. **MOESI behaviour** — the coherence simulator re-runs the Table 2
//!    workload under MOESI (SPARC/AMD) vs MESIF (Intel), showing the CTR
//!    benefit survives the protocol change, as §2.1 claims.

use hemlock_bench::{
    figure_spec, locks_from_args, mutexbench_all, print_series, sim_algo_for, substitution_note,
    Sweep, FIGURE_LOCKS,
};
use hemlock_coherence::{table2_row, Protocol};
use hemlock_harness::{fmt_f64, Contention, Table};

fn main() {
    let args = figure_spec("fig4_5", "Figures 4/5: SPARC (MOESI) substitution")
        .value("sim-threads", "simulated cores for the coherence model")
        .value("rounds", "simulated lock-unlock rounds per core")
        .parse_env();
    let locks = locks_from_args(&args, FIGURE_LOCKS);
    let sweep = Sweep::from_args(&args);
    substitution_note("SPARC T7-2 testbed → host run + MOESI coherence simulation");

    for (title, contention) in [
        ("Figure 4 analog: maximum contention", Contention::Maximum),
        ("Figure 5 analog: moderate contention", Contention::Moderate),
    ] {
        let series = mutexbench_all(&locks, &sweep, contention);
        print_series(title, &sweep.threads, &series, sweep.csv, "M steps/sec");
    }

    // MOESI vs MESIF: offcore per pair for each selected algorithm that has
    // a coherence-simulator stand-in.
    let sim_threads = args.get("sim-threads", 12usize);
    let rounds = args.get("rounds", if args.has("quick") { 30u32 } else { 100 });
    eprintln!("# Coherence-protocol sensitivity (simulated, {sim_threads} cores):");
    let mut t = Table::new(vec![
        "Lock",
        "OffCore/pair MESIF",
        "OffCore/pair MOESI",
        "Writebacks MESIF",
        "Writebacks MOESI",
    ]);
    for entry in &locks {
        let Some(algo) = sim_algo_for(entry) else {
            eprintln!(
                "# (no coherence model for {}; skipped in the table below)",
                entry.key
            );
            continue;
        };
        let mesif = table2_row(algo, sim_threads, rounds, Protocol::Mesif, 1);
        let moesi = table2_row(algo, sim_threads, rounds, Protocol::Moesi, 1);
        t.row(vec![
            mesif.name.to_string(),
            fmt_f64(mesif.offcore_per_pair(), 2),
            fmt_f64(moesi.offcore_per_pair(), 2),
            mesif.totals.writebacks.to_string(),
            moesi.totals.writebacks.to_string(),
        ]);
    }
    print!("{}", if sweep.csv { t.to_csv() } else { t.render() });
    eprintln!(
        "# Expectation: offcore orderings agree across protocols; MOESI's O state \
         eliminates the dirty writebacks (\"more graceful handling of write sharing\", §5.2)."
    );
}
