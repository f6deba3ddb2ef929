#!/usr/bin/env python3
"""Build and run the fig01 step benchmark.

    python3 fig01bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a ccaperf checkout. The first call configures and
builds the ccaperf libraries and the benchmark into .bench_build/fig01bench
(later calls rebuild only what changed); the build log goes to stderr. The
benchmark's progress goes to stderr, and the last line of stdout is its
JSON result. Exits non-zero, without a result, if the sources are missing,
the build fails or the benchmark fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fig01bench")
BINARY = os.path.join(BUILD, "fig01bench")
# A run makes a fixed number of simulations, so a slow host makes it
# longer than --seconds; this bounds a hung run well inside the 180 s a
# run may take.
RUN_TIMEOUT_S = 170
REQUIRED_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("ccaperf sources (src/) not found next to fig01bench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "fig01bench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark's last line is not JSON")
    if set(result) != REQUIRED_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
