#!/usr/bin/env python3
"""Gate sequential-path benchmark regressions against a committed baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [options]

Both files are Google Benchmark ``--benchmark_format=json`` outputs. The
comparison is *ratio-normalized*: CI machines differ in speed run to run,
so each benchmark's current/baseline time ratio is divided by the median
ratio across all compared benchmarks (the machine factor) before applying
the tolerance. A benchmark fails the gate when its normalized ratio
exceeds ``1 + tolerance``.

Excluded from the gate:
  - benchmarks whose baseline time is below ``--min-us`` (timer noise),
  - multi-worker parallel sweeps (``--skip`` regex, default
    ``Parallel.*/(2|4|8)$``): their wall clock depends on worker
    scheduling and host core count, which CI does not control. The
    ``parallelism=1`` rows of the same sweeps stay gated — they are the
    single-thread (inline verification) path this script protects.

Overhead mode::

    check_bench_regression.py CURRENT.json --overhead BM_RewriteObserved \\
        [--overhead-tolerance 0.05]

gates *paired* instrumented-vs-plain benchmarks: each named benchmark
runs both variants interleaved within one iteration and exports an
``overhead`` counter (instrumented/plain wall-time ratio) plus
``plain_us``/``observed_us``. Every row matching a given name prefix
fails the gate when its ratio exceeds ``1 + --overhead-tolerance``.
Pairing inside the benchmark is what makes a few-percent tolerance
meaningful — comparing two separately-timed rows on a shared CI host
drifts by far more than the tax being measured. This gates the
observability tax of tracing + metrics on the sequential rewrite path.

Speedup mode::

    check_bench_regression.py CURRENT.json --speedup BM_EvalIR \\
        [--speedup-min 1.5]

gates *paired* compiled-vs-tree benchmarks the other way around: each
named benchmark runs the tree walker and the compiled IR interleaved
within one iteration and exports a ``speedup`` counter (tree/IR
wall-time ratio) plus ``tree_us``/``ir_us``. Every row matching a name
prefix fails the gate when its speedup falls below ``--speedup-min``.
The same pairing argument applies: the gate holds the compiled backend
to a floor that separately-timed rows on a shared host could not
enforce. This gates the k=7 plan-set execution win of src/ir.

Retention mode::

    check_bench_regression.py CURRENT.json --retention BM_MaintSingleViewEdit \\
        [--retention-min 0.90] [--warmhit-min 5.0]

gates *paired* selective-vs-full-flush maintenance benchmarks: each named
benchmark warms a plan cache, edits one catalog view, and re-serves the
workload under both maintenance modes interleaved within one iteration,
exporting a ``retained`` counter (selective-arm retained cache fraction)
and a ``warmhit_gain`` counter (full-flush/selective re-serve wall-time
ratio) plus ``selective_us``/``flush_us``. A row fails the gate when its
retained fraction falls below ``--retention-min`` or its warm-hit gain
falls below ``--warmhit-min``. This gates the CL-MAINT claim of
src/maint: a single-view edit must not cold-start the serving layer.

Standard library only; no third-party packages.
"""

import argparse
import json
import re
import statistics
import sys

_UNIT_TO_US = {"ns": 1e-3, "us": 1.0, "ms": 1e3, "s": 1e6}


def load_times(path):
    """Returns {benchmark name: real time in microseconds}."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    times = {}
    for bench in doc.get("benchmarks", []):
        # Skip aggregates (mean/median/stddev rows under --benchmark_repetitions).
        if bench.get("run_type") == "aggregate":
            continue
        unit = _UNIT_TO_US.get(bench.get("time_unit", "ns"))
        if unit is None or "real_time" not in bench:
            continue
        times[bench["name"]] = bench["real_time"] * unit
    return times


def check_overhead(path, prefixes, tolerance, min_us):
    """Gates paired benchmarks that export an ``overhead`` ratio counter.

    ``prefixes`` is a list of benchmark name prefixes (``NAME`` matches
    ``NAME`` and every ``NAME/<arg>`` row). Rows whose ``plain_us``
    counter is below ``min_us`` are skipped as timer noise. Returns the
    exit code.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    failures = []
    compared = 0
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not any(name == p or name.startswith(p + "/") for p in prefixes):
            continue
        ratio = bench.get("overhead")
        if ratio is None:
            print(f"  {name}: no `overhead` counter; skipped")
            continue
        plain_us = bench.get("plain_us", 0.0)
        observed_us = bench.get("observed_us", 0.0)
        if plain_us < min_us:
            continue
        compared += 1
        marker = ""
        if ratio > 1.0 + tolerance:
            failures.append(name)
            marker = "  << OVERHEAD"
        print(f"  {name}: {plain_us:.0f}us plain -> "
              f"{observed_us:.0f}us observed (x{ratio:.3f}){marker}")

    if not compared:
        print("no comparable overhead rows; treating as pass")
        return 0
    if failures:
        print(f"\n{len(failures)} benchmark(s) exceed the "
              f"{tolerance:.0%} instrumentation overhead budget:")
        for name in failures:
            print(f"  {name}")
        return 1
    print(f"instrumentation overhead within {tolerance:.0%} "
          f"on all {compared} rows")
    return 0


def check_speedup(path, prefixes, minimum, min_us):
    """Gates paired benchmarks that export a ``speedup`` ratio counter.

    ``prefixes`` works like in check_overhead. Rows whose ``tree_us``
    counter is below ``min_us`` are skipped as timer noise. Returns the
    exit code.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    failures = []
    compared = 0
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not any(name == p or name.startswith(p + "/") for p in prefixes):
            continue
        ratio = bench.get("speedup")
        if ratio is None:
            print(f"  {name}: no `speedup` counter; skipped")
            continue
        tree_us = bench.get("tree_us", 0.0)
        ir_us = bench.get("ir_us", 0.0)
        if tree_us < min_us:
            continue
        compared += 1
        marker = ""
        if ratio < minimum:
            failures.append(name)
            marker = "  << BELOW FLOOR"
        print(f"  {name}: {tree_us:.0f}us tree -> "
              f"{ir_us:.0f}us IR (x{ratio:.2f}){marker}")

    if not compared:
        print("no comparable speedup rows; gate FAILS (nothing measured)")
        return 1
    if failures:
        print(f"\n{len(failures)} benchmark(s) fall below the "
              f"{minimum:.2f}x compiled-execution speedup floor:")
        for name in failures:
            print(f"  {name}")
        return 1
    print(f"compiled execution at or above {minimum:.2f}x "
          f"on all {compared} rows")
    return 0


def check_retention(path, prefixes, retention_min, warmhit_min):
    """Gates paired maintenance benchmarks exporting ``retained`` and
    ``warmhit_gain`` counters. Returns the exit code."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    failures = []
    compared = 0
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench.get("name", "")
        if not any(name == p or name.startswith(p + "/") for p in prefixes):
            continue
        retained = bench.get("retained")
        gain = bench.get("warmhit_gain")
        if retained is None or gain is None:
            print(f"  {name}: no `retained`/`warmhit_gain` counters; skipped")
            continue
        compared += 1
        selective_us = bench.get("selective_us", 0.0)
        flush_us = bench.get("flush_us", 0.0)
        marker = ""
        if retained < retention_min:
            failures.append(f"{name} (retained {retained:.3f})")
            marker = "  << LOW RETENTION"
        if gain < warmhit_min:
            failures.append(f"{name} (warm-hit gain x{gain:.2f})")
            marker += "  << LOW WARM-HIT GAIN"
        print(f"  {name}: retained {retained:.1%}, "
              f"{flush_us:.0f}us flush -> {selective_us:.0f}us selective "
              f"(x{gain:.2f}){marker}")

    if not compared:
        print("no comparable retention rows; gate FAILS (nothing measured)")
        return 1
    if failures:
        print(f"\n{len(failures)} maintenance gate violation(s) "
              f"(floors: retained >= {retention_min:.2f}, "
              f"warm-hit gain >= {warmhit_min:.2f}x):")
        for entry in failures:
            print(f"  {entry}")
        return 1
    print(f"cache retention >= {retention_min:.0%} and warm-hit gain >= "
          f"{warmhit_min:.2f}x on all {compared} rows")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="fresh benchmark JSON")
    parser.add_argument("baseline", nargs="?",
                        help="committed baseline JSON (omit with --overhead)")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed normalized slowdown (default 0.10)")
    parser.add_argument("--min-us", type=float, default=100.0,
                        help="ignore benchmarks with baseline below this")
    parser.add_argument("--skip", default=r"Parallel.*/(2|4|8)$",
                        help="regex of benchmark names to exclude")
    parser.add_argument("--overhead", nargs="+", metavar="BENCH",
                        help="paired benchmarks (with an `overhead` ratio "
                             "counter) to gate instead of a baseline "
                             "comparison")
    parser.add_argument("--overhead-tolerance", type=float, default=0.05,
                        help="allowed instrumented/plain slowdown in "
                             "--overhead mode (default 0.05)")
    parser.add_argument("--speedup", nargs="+", metavar="BENCH",
                        help="paired benchmarks (with a `speedup` ratio "
                             "counter) to hold to a minimum tree/IR "
                             "speedup instead of a baseline comparison")
    parser.add_argument("--speedup-min", type=float, default=1.5,
                        help="minimum tree/IR speedup in --speedup mode "
                             "(default 1.5)")
    parser.add_argument("--retention", nargs="+", metavar="BENCH",
                        help="paired maintenance benchmarks (with "
                             "`retained` and `warmhit_gain` counters) to "
                             "hold to cache-retention floors instead of a "
                             "baseline comparison")
    parser.add_argument("--retention-min", type=float, default=0.90,
                        help="minimum selective-arm retained cache "
                             "fraction in --retention mode (default 0.90)")
    parser.add_argument("--warmhit-min", type=float, default=5.0,
                        help="minimum full-flush/selective re-serve "
                             "wall-time ratio in --retention mode "
                             "(default 5.0)")
    args = parser.parse_args()

    if args.overhead:
        return check_overhead(args.current, args.overhead,
                              args.overhead_tolerance, args.min_us)
    if args.speedup:
        return check_speedup(args.current, args.speedup,
                             args.speedup_min, args.min_us)
    if args.retention:
        return check_retention(args.current, args.retention,
                               args.retention_min, args.warmhit_min)
    if not args.baseline:
        parser.error("baseline JSON is required unless --overhead, "
                     "--speedup, or --retention is given")

    current = load_times(args.current)
    baseline = load_times(args.baseline)
    skip = re.compile(args.skip)

    compared = {}
    for name, base_us in sorted(baseline.items()):
        if name not in current:
            continue
        if skip.search(name):
            continue
        if base_us < args.min_us:
            continue
        compared[name] = current[name] / base_us

    if not compared:
        print("no comparable benchmarks; treating as pass")
        return 0

    machine_factor = statistics.median(compared.values())
    print(f"{len(compared)} benchmarks compared; "
          f"machine factor (median ratio) = {machine_factor:.3f}")

    failures = []
    for name, ratio in sorted(compared.items()):
        normalized = ratio / machine_factor
        marker = ""
        if normalized > 1.0 + args.tolerance:
            failures.append(name)
            marker = "  << REGRESSION"
        print(f"  {name}: {baseline[name]:.0f}us -> {current[name]:.0f}us "
              f"(x{ratio:.2f}, normalized x{normalized:.2f}){marker}")

    if failures:
        print(f"\n{len(failures)} benchmark(s) regressed more than "
              f"{args.tolerance:.0%} after machine normalization:")
        for name in failures:
            print(f"  {name}")
        return 1
    print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
