#!/usr/bin/env python3
"""Builds the benchmark crate and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The crate builds into $CARGO_TARGET_DIR
(default: perfbench/target). Standard output ends with two lines: a
`{"stamp": ...}` line naming the machine, toolchain, source and switches
the result came from, then the result itself:
`{"correct", "attempted", "failed", "metrics"}`. Build output and progress
go to standard error. `compare.py` compares saved outputs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["lock-handoff", "store-uniform", "net-pipelined-hot", "net-unpipelined"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the release binary; returns its path."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        # Cargo's stdout goes to our stderr: stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail(f"build failed with exit code {done.returncode}")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.abspath(os.path.join(target, "release", "perfbench"))


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", os.path.join("perfbench", "Cargo.toml"),
             os.path.join("perfbench", "Cargo.lock"), os.path.join("perfbench", "src")]
    files = []
    for r in roots:
        path = os.path.join(ROOT, r)
        if os.path.isfile(path):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files += [os.path.relpath(os.path.join(dirpath, f), ROOT) for f in filenames]
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def commit():
    top = command_output(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return None
    return command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode != 0 or len(lines) < 2:
        fail(f"run failed with exit code {done.returncode}")
    switches = json.loads(lines[-2])["stamp"]
    result = json.loads(lines[-1])

    stamp = {
        "env": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "rustc": command_output(["rustc", "-V"]),
            **switches,
        },
        "source": {"commit": commit(), "sha256": source_digest()},
        "run": vars(args),
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
