//! A short run of every workload, untraced and traced: each emits every
//! metric of its kind, fails no operation, and actually checks values.
//! One test function, because the layer counters are process-wide: it
//! also checks that each traced run counts only its own acquisitions.

use perfbench::{run, Outcome, Workload, END_TO_END, PER_LAYER};

/// Per-layer metrics that must be non-zero on a workload: the layers it
/// exercises. Every metric of a layer it bypasses must be 0.
fn exercised(w: Workload) -> Vec<&'static str> {
    let mut names = vec![
        "core.acquires_per_op",
        "core.hold_ns.p50",
        "bench.values_verified",
    ];
    match w {
        Workload::LockHandoff => names.push("core.wait_ns.p50"),
        Workload::StoreUniform => names.extend([
            "shard.acquisitions_per_op",
            "minikv.call_ns.p50",
            "minikv.ops_per_call",
        ]),
        Workload::NetPipelinedHot | Workload::NetUnpipelined => names.extend([
            "shard.acquisitions_per_op",
            "minikv.call_ns.p50",
            "minikv.ops_per_call",
            "net.non_store_frac",
            "net.server_cpu_ns_per_op",
            "net.client_cpu_ns_per_op",
            // Not `harness.reactor_cpu_frac`: in a short window every socket
            // may be ready whenever polled, and the reactor never ticks.
            "harness.pool_cpu_ns_per_op",
        ]),
    }
    names
}

fn bypassed(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::LockHandoff => &["shard.", "minikv.", "async.", "net.", "harness."],
        Workload::StoreUniform => &["async.", "net.", "harness."],
        _ => &[],
    }
}

fn assert_clean(w: Workload, out: &Outcome, names: &[(&str, &str)]) {
    assert!(out.correct(), "{w:?}: correct=false");
    assert_eq!(out.failed, 0, "{w:?}: failed ops");
    assert!(out.verified > 0, "{w:?}: no value was checked");
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.0, m.2)).collect();
    assert_eq!(got, names, "{w:?}: metric names or units");
}

#[test]
fn every_workload_emits_its_metrics_and_fails_nothing() {
    for w in Workload::ALL {
        let out = run(w, 7, 0.4, false);
        assert_clean(w, &out, &END_TO_END);
        for (name, value, _) in &out.metrics {
            assert!(*value > 0.0, "{w:?}: end-to-end {name} is {value}");
        }

        let traced = run(w, 7, 0.8, true);
        assert_clean(w, &traced, &PER_LAYER);
        for name in exercised(w) {
            let v = traced.get(name).expect("listed metric");
            assert!(v > 0.0, "{w:?}: {name} is {v}");
        }
        for prefix in bypassed(w) {
            for (name, value, _) in traced.metrics.iter().filter(|m| m.0.starts_with(prefix)) {
                assert_eq!(*value, 0.0, "{w:?} bypasses {name}");
            }
        }
    }

    // One acquisition per op, counted from the window only: a lock-handoff
    // run after all the others must not see their acquisitions.
    let last = run(Workload::LockHandoff, 7, 0.8, true);
    let per_op = last.get("core.acquires_per_op").expect("listed metric");
    assert!(
        (0.9..=1.0).contains(&per_op),
        "lock-handoff after the other workloads: {per_op} acquisitions per op"
    );
}

/// BENCHMARK.json (at the repository root) lists exactly these
/// workloads and metrics, with the same units.
#[test]
fn benchmark_json_matches() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            spec.contains(&format!("\"name\": \"{}\"", w.name())),
            "{w:?}"
        );
    }
    let metrics = END_TO_END.iter().chain(&PER_LAYER);
    for (name, unit) in metrics.clone() {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(
            spec.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let listed = spec.matches("\"name\":").count();
    assert_eq!(listed, Workload::ALL.len() + metrics.count(), "extra names");
}
