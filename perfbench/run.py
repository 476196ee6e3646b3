#!/usr/bin/env python3
"""Builds and runs the meshroute repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

NAME is one of batch-n120, sharded-n1024, daemon-mixed, suite-smoke. The
first call configures and builds perfbench/ (a CMake package compiling the
checkout's src/ and bench/ sources) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild only what changed. Build output goes
to stderr. The last line of stdout is the result object printed by the
benchmark binary. Without the simulator sources next to perfbench/ the
script exits non-zero and prints no result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("batch-n120", "sharded-n1024", "daemon-mixed", "suite-smoke")
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=out, stderr=out, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", BUILD_JOBS],
                   stdout=out, stderr=out, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes: every workload in seconds (for the tests)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine.hpp")):
        print("perfbench: no simulator sources next to perfbench/", file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    # Relative, so the daemon's unix socket path stays short.
    work_dir = os.path.relpath(os.path.join(build_dir, f"run-{os.getpid()}"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
