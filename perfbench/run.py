#!/usr/bin/env python3
"""Builds the ArckFS benchmark from source and runs one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload varmail|fileserver|fleet|tier \
        --seed N --seconds S --trace 0|1

Build output goes to .bench_build/perfbench (Release, always). The last line of stdout
is the run's result as one JSON object; build logs go to stderr. A traced run also
writes its spans as Chrome trace-event JSON under .bench_build/perfbench/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("varmail", "fileserver", "fleet", "tier")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "arckfs_bench", "-j", jobs],
    ]
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    for var in ("TRIO_RING_ENABLE", "TRIO_RING_DEPTH"):
        if var in os.environ:
            print(f"run.py: refusing to run with {var} set (op rings are pinned off)",
                  file=sys.stderr)
            return 2
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1

    command = [
        os.path.join(BUILD_DIR, "arckfs_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
