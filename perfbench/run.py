#!/usr/bin/env python3
"""End-to-end benchmark of the FT-BFS library: one workload per invocation.

    python3 perfbench/run.py --workload eps_rmat --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds perfbench/ (the library sources plus the
benchmark program, Release) into .bench_build/perfbench on first use, runs the
workload in a child process, checks that its result names every metric
BENCHMARK.json lists for the mode (end_to_end with --trace 0, per_layer with
--trace 1) with the right unit, and prints that result as the last line of
stdout. --trace 1 also writes the run's spans to .bench_build/traces/.
--tiny runs the workload at smoke-test scale. Exits non-zero, without a
result line, when the build, the run or the check fails.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(OUT_DIR, "perfbench")
BINARY = os.path.join(BUILD_DIR, "ftbfs_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds (both quick when up to date), holding a lock so
    concurrent first runs do not race on one build tree."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        fresh = not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
        if fresh and shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        jobs = str(max(1, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                       check=True, stdout=sys.stderr)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, expected):
    """Returns a list of problems with one run's result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metrics missing {missing}, unexpected {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        if name in expected and m.get("unit") != expected[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, "
                            f"want {expected[name]!r}")
    return problems


def main():
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the child it is waiting on before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test scale instead of the measured one")
    args = ap.parse_args()

    try:
        expected = expected_metrics(args.trace)
        build()
    except (OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log(f"setup failed: {e}")
        return 1

    run_dir = os.path.join(OUT_DIR, "runs")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--artifact-dir", run_dir]
    if args.trace:
        trace_dir = os.path.join(OUT_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{args.workload} exited with code {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        log(f"last line is not JSON: {e}")
        return 1
    problems = check_result(result, expected)
    if problems:
        for p in problems:
            log(p)
        return 1
    log(f"{args.workload} seed {args.seed}: "
        f"{time.monotonic() - started:.1f} s")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
