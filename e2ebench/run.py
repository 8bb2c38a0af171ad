#!/usr/bin/env python3
"""End-to-end benchmark of FRT: builds frt_e2e from this checkout's sources,
runs one workload, and prints one JSON result line.

    python3 e2ebench/run.py --workload batch_gl|serve_fleet|serve_hotfeed \
        --seed N --seconds S --trace 0|1 [--scale full|smoke]

--trace 0 prints the end-to-end metrics of one untraced run. --trace 1 runs
the workload untraced and then traced (same seed), prints the per-layer
metrics of the traced run, and adds trace.overhead: the traced headline
metric (throughput_pts_cpu_s) over the untraced one. Build outputs, inputs,
digests and traces go under .bench_build/e2ebench in the checkout root.
Exits non-zero, without a result line, when the build or a run fails; a run
whose output checks fail prints its result with "correct": false and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "frt_e2e")
WORKLOADS = ("batch_gl", "serve_fleet", "serve_hotfeed")
HEADLINE = "throughput_pts_cpu_s"
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 175  # every run must end within 180 s of its start


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def build(env):
    """Configures once, then builds frt_e2e incrementally (Release)."""
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "frt_e2e",
                  "-j", "4"])
    for cmd in steps:
        remaining = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=max(1, remaining))
        except subprocess.TimeoutExpired:
            log(f"build step timed out: {' '.join(cmd)}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def run_once(args, trace, env, deadline):
    """Runs frt_e2e once; returns its parsed result line and exit code."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
           "--work-dir", WORK_DIR, "--scale", args.scale]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run timed out")
        return None, 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"run printed no result (exit {proc.returncode})")
        return None, proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"unparseable result line: {lines[-1][:200]}")
        return None, 1
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    # Compilers and the benchmark keep their scratch files in the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    if not build(env):
        return 1

    deadline = time.monotonic() + RUN_LIMIT_S
    untraced, code = run_once(args, False, env, deadline)
    if untraced is None:
        return code
    results = [untraced]
    if args.trace == "1":
        traced, code = run_once(args, True, env, deadline)
        if traced is None:
            return code
        results.append(traced)
        metrics = dict(traced["layers"])
        base = untraced["e2e"].get(HEADLINE, {}).get("value", 0.0)
        head = traced["e2e"].get(HEADLINE, {}).get("value", 0.0)
        metrics["trace.overhead"] = {
            "value": head / base if base > 0 else 0.0, "unit": "ratio"}
    else:
        metrics = untraced["e2e"]
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
