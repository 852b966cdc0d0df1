#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload fleet-steady|single-long|fleet-chaos \
        --seed N --seconds S --trace 0|1

Builds the dragbench program (perfbench/CMakeLists.txt, Release) from the
sources of this checkout into .bench_build/perfbench, then runs one benchmark
run and passes its standard output through.  The last line of standard output
is dragbench's JSON result.  Build logs go to standard error.  Exits non-zero,
without a result, if the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dragbench")
WORKLOADS = ("fleet-steady", "single-long", "fleet-chaos")


def run_logged(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-6000:])
    return result.returncode == 0


def configure():
    return run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])


def build():
    # A cache left by another source tree makes configure fail; start over once.
    if not configure():
        shutil.rmtree(BUILD, ignore_errors=True)
        if not configure():
            return False
    return run_logged(["cmake", "--build", BUILD, "--target", "dragbench", "-j", "2"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        sys.stderr.write("run.py: building dragbench failed\n")
        return 1
    result = subprocess.run(
        [BINARY, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
