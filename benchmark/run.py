#!/usr/bin/env python3
"""Build lsbench from source, then run one workload.

    python3 benchmark/run.py --workload svc_hot --seed 1 --seconds 15 --trace 0

Run from the repository root.  The first run configures and builds
benchmark/ (its own CMake project over the repository's library) into
build/benchmark; later runs only bring that build up to date.  Build
output goes to stderr, so the last line of stdout is lsbench's JSON
result.  A traced run (--trace 1) also writes its spans to
build/benchmark/spans_<workload>.json.  The exit status is lsbench's, or
the build's when the build fails.
"""
import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build" / "benchmark"


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j4", "--target", "lsbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    command = [str(BUILD / "lsbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", f"spans_{args.workload}.json"]
    # lsbench's socket paths are relative to its working directory.
    sys.exit(subprocess.run(command, cwd=BUILD).returncode)


if __name__ == "__main__":
    main()
