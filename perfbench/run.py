#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload and seed.

    python3 perfbench/run.py --workload reorg-mem --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds perfbench/ (which compiles the
library under src/) with CMake into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the
workload in a process of its own. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
workload runs twice, untraced and then traced, and the metrics are the
per-layer ones plus trace.overhead_<metric>: traced minus untraced, for
every end-to-end metric. Build output and diagnostics go to standard
error. The exit code is 0 only when every correctness check passed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("reorg-mem", "serve-disk", "cluster-disk")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "database.h")):
        fail(f"library sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def run_child(binary, args, trace, work_dir, trace_out=None):
    """Runs one workload process; returns (result, e2e, returncode)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line if line.startswith("#") else "# " + line)
    result, e2e = None, None
    try:
        result = json.loads(lines[-1])
        e2e = next(json.loads(l[4:]) for l in lines if l.startswith("E2E "))
    except (IndexError, ValueError, StopIteration):
        fail(f"{args.workload} printed no result (exit {proc.returncode})")
    return result, e2e, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    work_dir = os.path.join(root, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        if not args.trace:
            result, _, rc = run_child(binary, args, False, work_dir)
        else:
            base, base_e2e, rc0 = run_child(binary, args, False, work_dir)
            trace_dir = os.path.join(root, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            result, e2e, rc = run_child(
                binary, args, True, work_dir,
                os.path.join(trace_dir, f"{args.workload}.csv"))
            for name, m in e2e.items():
                result["metrics"][f"trace.overhead_{name}"] = {
                    "value": m["value"] - base_e2e[name]["value"],
                    "unit": m["unit"]}
            result["correct"] = result["correct"] and base["correct"]
            rc = rc or rc0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    sys.exit(rc if rc else (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
