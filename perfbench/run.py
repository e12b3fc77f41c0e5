#!/usr/bin/env python3
"""Builds and runs the MGSP end-to-end benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload kv-zipf --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench,
runs one workload and passes the benchmark's report through. The last
line of standard output is the JSON result. Build output goes to
standard error. Exits non-zero if the build, the run or any
correctness check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kv-zipf", "bulk-seq", "tpcc-txn", "crash-recover")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + gen
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"  # an exported checkout; never search above it
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(bench_dir, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [os.path.join(build_dir, "mgsp_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(root)]
    if args.trace == "1":
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = run.stdout.rstrip("\n").split("\n")
    # Everything but the result line; it is printed last, once checked.
    body, last = lines[:-1], lines[-1] if lines else ""
    for line in body:
        print(line)
    try:
        result = json.loads(last)
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if run.returncode != 0 or not ok:
        if last:
            print(last)
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 5
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
