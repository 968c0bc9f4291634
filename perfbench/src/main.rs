//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every flag is required; `run.py` decides which window lengths a run may
//! ask for. Prints a `{"stamp": …}` line describing the run's switches,
//! then, as the last line, `{"correct", "attempted", "failed", "metrics"}` with
//! every metric by name and unit. Progress and the verification count go
//! to stderr.

use perfbench::{procfs, run, Workload};
use std::process::ExitCode;

struct Cli {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| bad(&format!("expected one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number of seconds"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{{\"stamp\": {{\"obs\": \"{}\", \"request_tracing\": \"{}\"}}}}",
        if hemlock_obs::enabled() { "on" } else { "off" },
        if hemlock_obs::trace::active() {
            "on"
        } else {
            "off"
        },
    );
    let steal0 = procfs::steal_ticks();
    let out = run(cli.workload, cli.seed, cli.seconds, cli.trace);
    // A run the host slowed down reads as an outlier; this tells which.
    let host_steal = procfs::steal_share(steal0, procfs::steal_ticks())
        .map_or("unknown".into(), |s| format!("{:.2}%", 100.0 * s));
    eprintln!(
        "perfbench: {} attempted={} failed={} values_verified={} host_steal={host_steal}",
        cli.workload.name(),
        out.attempted,
        out.failed,
        out.verified
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
