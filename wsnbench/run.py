#!/usr/bin/env python3
"""Runs one workload of the wsnex benchmark and prints its result.

    python3 wsnbench/run.py --workload campaign|validate|serve \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the benchmark program
(wsnbench/CMakeLists.txt) from the checkout's own sources into
.bench_build/, measures cold set-up in fresh processes, runs the workload
in one more fresh process under .bench_work/, checks that the metrics it
printed are exactly the ones BENCHMARK.json declares for the trace mode,
with the declared units, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wsnbench")
BINARY = os.path.join(BUILD_DIR, "wsnbench")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# Fresh processes that only measure cold set-up; the measuring process's
# own cold set-up is one more sample, and setup_s is their median.
SETUP_PROBES = 6
# A run must end within 180 s of starting (the build excepted).
DEADLINE_S = 175.0


def die(message):
    print(f"wsnbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(f"{needed} not found next to wsnbench/: no sources to build")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wsnbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-6000:])
            die("build failed: " + " ".join(cmd))


def run_bench(args, work, deadline, extra=()):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work, *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("benchmark program exceeded the run deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"benchmark program exited with code {proc.returncode}")
    return lines


def check_metrics(metrics, declared):
    """Problems with the printed metric set against the declared one."""
    problems = []
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(want.keys() - metrics.keys()):
        problems.append(f"declared metric {name} not printed")
    for name in sorted(metrics.keys() - want.keys()):
        problems.append(f"printed metric {name} not declared")
    for name in sorted(want.keys() & metrics.keys()):
        metric = metrics[name]
        if metric.get("unit") != want[name]:
            problems.append(f"{name}: unit {metric.get('unit')!r}, "
                            f"declared {want[name]!r}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")

    build()
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    try:
        setup_samples = []
        if args.trace == 0:
            for _ in range(SETUP_PROBES):
                probe = run_bench(args, work, deadline, ["--setup-probe"])
                setup_samples.append(json.loads(probe[-1])["setup_s"])
        lines = run_bench(args, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if args.trace == 0:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = check_metrics(metrics, declared)
    for problem in problems:
        print(f"wsnbench: {problem}", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
