#!/usr/bin/env python3
"""Builds and runs the xok repository benchmark.

    python3 perfbench/run.py --workload kv-get --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload rack-4 --determinism
    python3 perfbench/run.py --selftest

The first call configures and compiles perfbench/ (which compiles ../src)
into .bench_build/perfbench under the repository root; later calls only let
the build tool confirm it is up to date. Build output goes to stderr. The
driver's stdout passes through unchanged: a table, then one JSON result
object as the last line. See perfbench/NOTES.md for what each number means
and for the held-out seed that claims must also be checked on.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["kv-get", "kv-put-open", "rack-4"]
DEFAULT_SEED = 1
DRIVER_TIMEOUT_S = 170

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: the xok sources (src/) are not beside perfbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return BUILD / target


def run(cmd):
    """Runs cmd with stdout passed through; returns its exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--determinism", action="store_true",
                        help="run every sub-seed exactly twice and require identical results")
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own arithmetic and exit")
    args = parser.parse_args()

    if args.selftest:
        return run([str(build("perfbench_selftest"))])

    driver = str(build("perfbench_driver"))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        cmd = [driver, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.determinism:
            cmd.append("--determinism")
        sys.stdout.flush()
        status = run(cmd) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
