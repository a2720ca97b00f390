#!/usr/bin/env python3
"""The benchmark's own test: determinism of its counts and completeness of
its metric report.

    python3 perfbench/test_perfbench.py

For a fixed seed at a tiny, fixed operation count, every count the benchmark
records per operation (plan-cache hit or miss, candidates tested, evictions,
entries examined and invalidated per edit, fetches and answer roots per
read) must repeat exactly across two runs, untraced and traced. Every
metric the benchmark defines must be printed with its unit, and every run
must pass its own correctness checks.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTS = ROOT / ".bench_build" / "perfbench" / "test-counts"

# Tiny runs that still reach each workload's distinctive events: evictions
# on cold_unique, a catalog edit on edit_churn. Traced runs end with one
# closing edit on every workload.
REQUESTS = {"warm_repeat": 200, "cold_unique": 300, "edit_churn": 60}
SEED = 7

# Every metric the benchmark reports, with its unit. The end-to-end ones
# are printed with --trace 0, the layer ones with --trace 1.
END_TO_END = {
    "latency_p50_ref": "ref", "success_ratio": "ratio", "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "tsl.parse_us": "us", "service.canonical_us": "us",
    "service.plan_cache.lookup_us": "us",
    "service.plan_cache.hit_ratio": "ratio",
    "service.plan_cache.evictions": "count", "runtime.handoff_us": "us",
    "mediator.plan_us": "us", "rewrite.candidates_tested": "count",
    "rewrite.equiv_cache_hits": "count", "rewrite.chase_cache_hits": "count",
    "rewrite.phase.chase_us": "us", "rewrite.phase.compose_us": "us",
    "rewrite.phase.equiv_us": "us", "mediator.fetch_us": "us",
    "mediator.fetches": "count", "mediator.fetch_objects": "count",
    "mediator.execute_us": "us", "eval.assignments": "count",
    "answer.roots": "count", "mediator.make_ms": "ms",
    "analysis.analyze_rules_ms": "ms", "catalog.delta_us": "us",
    "maint.replace_ms": "ms", "maint.invalidated_ratio": "ratio",
    "maint.replans_per_edit": "count", "serve.latency_p50_us": "us",
    "serve.reference_p50_us": "us", "serve.latency_p99_us": "us",
    "serve.throughput_rps": "1/s", "serve.edit_p50_ms": "ms",
    "trace.latency_p50_us": "us",
    "trace.overhead_us": "us", "trace.unattributed_ratio": "ratio",
}


def run(workload, trace, counts_path):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
               "--requests", str(REQUESTS[workload]),
               "--counts-out", str(counts_path)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{command} exited {out.returncode}:\n"
                             f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    def check_workload(self, workload):
        COUNTS.mkdir(parents=True, exist_ok=True)
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            runs = []
            for attempt in range(2):
                path = COUNTS / f"{workload}-trace{trace}-run{attempt}.txt"
                result = run(workload, trace, path)
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), set(expected))
                for name, unit in expected.items():
                    self.assertEqual(result["metrics"][name]["unit"], unit,
                                     name)
                runs.append(path.read_text())
            self.assertTrue(runs[0], "no counts were recorded")
            self.assertEqual(runs[0], runs[1],
                             f"{workload} counts differ between two runs")
            kinds = {line.split(" hit=")[0].split(" view=")[0]
                     for line in runs[0].splitlines()}
            self.assertIn("read", kinds)
            if trace == 1 or workload == "edit_churn":
                self.assertIn("edit", kinds)
            else:
                self.assertNotIn("edit", kinds)
            if trace == 1:
                self.assertIn("traced read", kinds)
                self.assertIn("traced edit", kinds)
            if workload == "cold_unique":
                self.assertTrue(any("evictions=" in line and
                                    " evictions=0" not in line
                                    for line in runs[0].splitlines()),
                                "cold_unique evicted nothing")

    def test_warm_repeat(self):
        self.check_workload("warm_repeat")

    def test_cold_unique(self):
        self.check_workload("cold_unique")

    def test_edit_churn(self):
        self.check_workload("edit_churn")

    def test_benchmark_json_matches_the_report(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(REQUESTS))


if __name__ == "__main__":
    unittest.main()
