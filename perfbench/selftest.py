#!/usr/bin/env python3
"""Quick self-test tier of the benchmark.

Runs every workload of BENCHMARK.json at a small size (`--scale small`,
one second), untraced and traced, and checks that each run exits 0, is
correct, and prints as its last line exactly the result keys and every
metric BENCHMARK.json names, with its unit. End-to-end values must be
positive.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(command, workload, trace):
    args = command + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", trace, "--scale", "small",
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-500:]} {lines[-2:]}"
    return json.loads(lines[-1]), None


def check(result, expected, positive):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("not correct")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    names = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for name, unit in names.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value} is not positive")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in bench["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            result, error = run(bench["command"], workload["name"], trace)
            problems = [error] if error else check(result, bench[key], trace == "0")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload['name']:14s} trace {trace}: {status}", flush=True)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
