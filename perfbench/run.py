#!/usr/bin/env python3
"""Builds the benchmark program from source, then runs one workload.

    python3 perfbench/run.py --workload warm_repeat --seed 1 --seconds 15 --trace 0

Run from the repository root. The first call compiles the tslrw sources
and the benchmark into .bench_build/perfbench (a few minutes); later calls
rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. Flags other
than the four above (--requests, --counts-out) pass through to the
program unchanged; see README.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "perfbench"
# A run ends well inside the 180 s a single benchmark call is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build():
    """Configures and builds the benchmark; True on success. Configuring
    every time costs about a second and keeps an old build directory in
    step with a changed CMakeLists.txt."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "perfbench"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return PROGRAM.is_file()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args, passthrough = parser.parse_known_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no tslrw sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not build():
        return fail("build failed")

    command = [str(PROGRAM), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--git-sha", git_sha()]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.json")]
    command += passthrough
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
