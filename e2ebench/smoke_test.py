#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: every workload at tiny sizes,
untraced and traced, in well under a minute once built.

    python3 e2ebench/smoke_test.py

Asserts for each run that run.py exits 0, prints exactly the result keys
the benchmark contract names, passes every output check ("correct": true),
and reports every metric BENCHMARK.json lists (end_to_end untraced,
per_layer traced) with its declared unit and a finite value.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--scale", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=600)
            label = f"{workload} --trace {trace}"
            problems = []
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}")
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if result.get("correct") is not True:
                    problems.append("output checks failed")
                if not result.get("attempted", 0) >= 1:
                    problems.append("attempted < 1")
                metrics = result.get("metrics", {})
                for name, unit in expected[trace].items():
                    m = metrics.get(name)
                    if m is None:
                        problems.append(f"missing {name}")
                    elif m.get("unit") != unit:
                        problems.append(f"{name} unit {m.get('unit')}")
                    elif not math.isfinite(m.get("value", math.nan)):
                        problems.append(f"{name} not finite")
                extra = set(metrics) - set(expected[trace])
                if extra:
                    problems.append(f"undeclared metrics {sorted(extra)}")
            if problems:
                failures += 1
                print(f"FAIL {label}: {'; '.join(problems)}")
                print(proc.stderr[-3000:])
            else:
                print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
