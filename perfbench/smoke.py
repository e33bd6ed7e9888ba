#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, untraced and traced, at a
short length.

    python3 perfbench/smoke.py [--seconds N]

Run from the repository root. For each run it checks that the process
exits 0, that the last line of its output is the result object, that
every metric BENCHMARK.json names for that mode is present with its
declared unit and a finite value, and that ok_frac is 1.0. Exits 1 on
the first failure.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def check(spec, workload, trace, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", str(seconds), "--trace", str(trace),
    ]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    label = f"{workload} --trace {trace}"
    if run.returncode != 0:
        fail(f"{label} exited {run.returncode}:\n{run.stderr[-2000:]}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"{label} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{label} result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in declared}:
        fail(f"{label} metric names differ: {sorted(set(got) ^ {m['name'] for m in declared})}")
    for m in declared:
        entry = got[m["name"]]
        if entry.get("unit") != m["unit"]:
            fail(f"{label} {m['name']} has unit {entry.get('unit')!r}, declared {m['unit']!r}")
        if not isinstance(entry.get("value"), (int, float)) or not math.isfinite(entry["value"]):
            fail(f"{label} {m['name']} value {entry.get('value')!r}")
    if not trace and got["ok_frac"]["value"] != 1.0:
        fail(f"{label} ok_frac {got['ok_frac']['value']}")
    print(f"smoke: ok {label}: {result['attempted']} operations, {len(got)} metrics")


def main():
    seconds = 2
    if len(sys.argv) == 3 and sys.argv[1] == "--seconds":
        seconds = int(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    # path_walk runs and is checked, but is not a BENCHMARK.json
    # workload (see README.md).
    names += [n for n in ("path_walk",) if n not in names]
    for name in names:
        for trace in (0, 1):
            check(spec, name, trace, seconds)
    print("smoke: all workloads passed")


if __name__ == "__main__":
    main()
