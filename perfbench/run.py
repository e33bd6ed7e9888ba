#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload wire_scan --seed 1 --seconds 10 --trace 0

Run from the repository root. The binary is built in release mode into
$CARGO_TARGET_DIR (default: perfbench/target); build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    binary = os.path.join(ROOT, target, "release", "perfbench")
    args = sys.argv[1:] + ["--out", os.path.join(HERE, "out")]
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
