#!/usr/bin/env python3
"""Paired, interleaved A/B runs of google-benchmark rows from two builds.

Usage:
    paired_bench.py BASE_BUILD NEW_BUILD FILTER

BASE_BUILD and NEW_BUILD are CMake build directories of the same
repository at two commits (say, a change and its parent); their
``bench/`` subdirectories hold the benchmark programs. FILTER is a
``--benchmark_filter`` regex. Each program that has rows matching FILTER
runs once per build in each of ROUNDS rounds, the two builds back to back
and in alternating order, each run pinned to CPU with ``taskset`` so both
sides see the same core, for MIN_TIME seconds per row. For every row the
script prints the median real time of each side, the interquartile range
of BASE's times across rounds (the spread a claimed difference between
the medians must exceed), the median over rounds of the per-round ratio
NEW/BASE (below 1 is faster), and in how many rounds NEW was the faster
side.

This is a measuring aid, not a gate: it changes no baseline and exits 0
whatever the ratios are (2 on a usage or run error).
"""

import argparse
import json
import pathlib
import re
import statistics
import subprocess
import sys

ROUNDS = 8
CPU = 2
MIN_TIME = "0.2"  # --benchmark_min_time, in seconds


def fail(message):
    print(f"paired_bench: {message}", file=sys.stderr)
    return 2


def programs(build, pattern):
    """The bench_* programs of `build` that list a row matching
    `pattern`."""
    bench = pathlib.Path(build) / "bench"
    out = []
    for path in sorted(bench.glob("bench_*")):
        if not path.is_file() or not path.stat().st_mode & 0o111:
            continue
        listed = subprocess.run(
            [str(path), "--benchmark_list_tests",
             f"--benchmark_filter={pattern}"],
            capture_output=True, text=True)
        # Keep only listed names the filter matches: a program without
        # matching rows says so on stdout with exit code 0, and a program
        # that is not a google-benchmark one prints whatever it prints.
        rows = [line for line in listed.stdout.splitlines()
                if re.fullmatch(r"\S+", line) and re.search(pattern, line)]
        if listed.returncode == 0 and rows:
            out.append(path.name)
    return out


def run_once(build, program, pattern):
    """Real time per row name, in the rows' own time unit scaled to us."""
    command = ["taskset", "-c", str(CPU),
               str(pathlib.Path(build) / "bench" / program),
               f"--benchmark_filter={pattern}", "--benchmark_format=json",
               f"--benchmark_min_time={MIN_TIME}"]
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}
    times = {}
    for row in json.loads(done.stdout)["benchmarks"]:
        if row.get("run_type", "iteration") != "iteration":
            continue
        times[row["name"]] = row["real_time"] * scale[row["time_unit"]]
    return times


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_build")
    parser.add_argument("new_build")
    parser.add_argument("filter")
    args = parser.parse_args()

    names = programs(args.new_build, args.filter)
    if not names:
        return fail(f"no benchmark rows match {args.filter!r}")
    base_bench = pathlib.Path(args.base_build) / "bench"
    missing = [name for name in names if not (base_bench / name).is_file()]
    if missing:
        return fail(f"not in {args.base_build}: {', '.join(missing)}")

    sides = {"base": args.base_build, "new": args.new_build}
    samples = {}  # row -> side -> [us per round]
    for round_index in range(ROUNDS):
        order = ["base", "new"] if round_index % 2 == 0 else ["new", "base"]
        for program in names:
            for side in order:
                try:
                    times = run_once(sides[side], program, args.filter)
                except (RuntimeError, ValueError, KeyError) as error:
                    return fail(str(error))
                for row, us in times.items():
                    samples.setdefault(row, {"base": [], "new": []})
                    samples[row][side].append(us)
        print(f"round {round_index + 1}/{ROUNDS} done", file=sys.stderr)

    print(f"{'row':<40} {'base_us':>12} {'base_iqr_us':>12} {'new_us':>12} "
          f"{'ratio':>7} wins")
    for row, by_side in samples.items():
        base, new = by_side["base"], by_side["new"]
        if len(base) != len(new) or not base:
            print(f"{row:<40} (missing on one side)")
            continue
        ratios = [n / b for b, n in zip(base, new)]
        wins = sum(1 for r in ratios if r < 1.0)
        quartiles = (statistics.quantiles(base, n=4) if len(base) > 1
                     else [base[0]] * 3)
        print(f"{row:<40} {statistics.median(base):>12.1f} "
              f"{quartiles[2] - quartiles[0]:>12.1f} "
              f"{statistics.median(new):>12.1f} "
              f"{statistics.median(ratios):>7.3f} {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
