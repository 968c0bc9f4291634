#!/usr/bin/env python3
"""Compares two sets of saved benchmark outputs, metric by metric.

    python3 perfbench/compare.py BASE.out NEW.out

Each file holds the standard output of any number of `run.py` runs (each
run prints a stamp line, then its result line). The comparison is refused
(exit 2) when any two runs' environment stamps differ: CPU count, CPU
model, rustc, and the observability switches must match, or a different
machine would read as a regression. The source stamp (commit, digest) may
differ; it is what is being compared.

For every workload and end-to-end metric this prints each side's median
and quartiles and the change of the median, judged against the metric's
bound in BENCHMARK.json: "worse" beyond the bound, "unresolved" when the
base's own quartile spread is wider than the bound, else "ok". Exits 1 if
any run failed its checks or any metric is worse.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """[(stamp, result)] in file order."""
    runs, stamp = [], None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "stamp" in obj:
                stamp = obj["stamp"]
            elif "metrics" in obj:
                runs.append((stamp, obj))
                stamp = None
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def by_workload(runs):
    out = {}
    for stamp, result in runs:
        if stamp["run"]["trace"] != 0:
            continue
        metrics = out.setdefault(stamp["run"]["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    runs = base + new
    if not runs or any(s is None for s, _ in runs):
        print("compare: every result needs the stamp line run.py prints before it")
        sys.exit(2)
    envs = {json.dumps(s["env"], sort_keys=True) for s, _ in runs}
    if len(envs) > 1:
        print("compare: refusing to compare runs from different environments:")
        for e in sorted(envs):
            print("  " + e)
        sys.exit(2)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    status = 0
    for path, side in ((sys.argv[1], base), (sys.argv[2], new)):
        bad = sum(1 for _, r in side if not r["correct"] or r["failed"])
        if bad:
            print(f"{path}: {bad} run(s) failed their correctness checks")
            status = 1

    b_all, n_all = by_workload(base), by_workload(new)
    print(f"{'workload':18} {'metric':15} {'base q1/med/q3':>32} {'new q1/med/q3':>32} {'change':>8}  verdict")
    for workload in sorted(set(b_all) & set(n_all)):
        for name, m in spec.items():
            b, n = b_all[workload].get(name), n_all[workload].get(name)
            if not b or not n:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = nq[1] / bq[1] - 1 if bq[1] else 0.0
            worse = change if m["better"] == "lower" else -change
            spread = (bq[2] - bq[0]) / bq[1] if bq[1] else 0.0
            if spread > m["bound"]:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, status = "worse", 1
            else:
                verdict = "ok"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{workload:18} {name:15} {fmt(bq):>32} {fmt(nq):>32} {change:+8.1%}  {verdict}")
    sys.exit(status)


if __name__ == "__main__":
    main()
