#!/usr/bin/env python3
"""Builds and runs the YASK serving benchmark.

    python3 perfbench/run.py --workload query_hot|query_cold|whynot_mix \
        --seed N --seconds S --trace 0|1 [--results DIR]
    python3 perfbench/run.py --selftest

Run from the root of a YASK checkout. The first call configures and builds
the benchmark package (perfbench/CMakeLists.txt, which compiles the yask
library from ../src) into .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to stderr.

Each run forwards the benchmark binary's stdout, whose last line is the
result object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The full
record (every metric, the host fingerprint, sample counts) is written to
--results (default .bench_build/results) for perfbench/report.py; a traced
run also writes its spans there as JSON lines.

--selftest builds and runs the helper tests and the report and exactness
self-tests (perfbench/tests).
"""

import argparse
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_yask")
HELPER_TESTS = os.path.join(BUILD_DIR, "perfbench_helpers_test")
WORKLOADS = ("query_hot", "query_cold", "whynot_mix")
# A run measures --seconds plus set-up and its reference answers; anything
# far beyond that is a hang, and the run must still end within 180 s.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark package; False on error."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def selftest():
    if not build():
        return 1
    failed = subprocess.run([HELPER_TESTS]).returncode != 0
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover",
                            "-s", os.path.join(HERE, "tests"), "-p",
                            "test_*.py"])
    return 1 if failed or tests.returncode else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results",
                        default=os.path.join(ROOT, ".bench_build", "results"))
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="flip a byte of every reference answer; the run "
                             "must then report correct=false and exit 1")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1

    os.makedirs(args.results, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                     time.time_ns())
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--record", os.path.join(args.results, stem + ".json")]
    if args.trace:
        command += ["--spans", os.path.join(args.results, stem + ".spans.jsonl")]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
