#!/usr/bin/env python3
"""Build and run the SAVE repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig14-cold --seed 7 --seconds 15 --trace 0

Builds the library, save-serve, save-worker and save-perfbench from source
into .bench_build/perfbench (Release; a no-op once built), then runs
save-perfbench. Its last stdout line is the result JSON; see
perfbench/README.md for the workloads, the metrics and the checks.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")


def build():
    """Configure once, then build; the log goes to the build directory."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                sys.stderr.write("perfbench: build failed; see %s\n"
                                 % log_path)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--knobs", choices=("paper", "tiny"), default="paper")
    args = ap.parse_args()

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no SAVE sources (src/) next to "
                         "perfbench/; run it from a full checkout\n")
        return 2
    if not build():
        return 1
    exe = os.path.join(BUILD, "bin", "save-perfbench")
    # Relative paths keep the daemons' Unix socket paths short.
    return subprocess.call([
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--knobs", args.knobs, "--data", os.path.relpath(HERE),
        "--state", BUILD, "--bin", os.path.join(BUILD, "bin")])


if __name__ == "__main__":
    sys.exit(main())
