#!/usr/bin/env python3
"""Build and run the vfpga end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of virtio-echo, xdma-echo, blk-polled, lane-fleet (see
perfbench/workloads.json). The first call configures and builds the
library and the benchmark into .bench_build/ (Release) and runs the
benchmark's self-test once per build. The benchmark's last stdout line
is one JSON object {correct, attempted, failed, metrics}; this script
checks that its metric names are exactly the ones BENCHMARK.json lists
for the chosen --trace mode, and exits non-zero otherwise, on a failed
build or self-test, or when the benchmark itself fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("virtio-echo", "xdma-echo", "blk-polled", "lane-fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def call(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "vfpga")):
        fail("the vfpga sources (CMakeLists.txt, src/vfpga) are missing")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        call(["cmake", "-S", BENCH_DIR, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"], 600)
    call(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench",
          "perfbench_selftest"], 900)
    selftest = os.path.join(BUILD, "perfbench_selftest")
    stamp = os.path.join(BUILD, "selftest.passed")
    if not os.path.isfile(stamp) or \
            os.path.getmtime(stamp) < os.path.getmtime(selftest):
        call([selftest, "--gtest_brief=1"], 300)
        with open(stamp, "w", encoding="utf-8") as f:
            f.write("ok\n")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace)
    binary = build()
    trace_dir = os.path.join(BUILD, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(trace_dir, f"{args.workload}.json")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload} printed no result (exit {done.returncode})")
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
