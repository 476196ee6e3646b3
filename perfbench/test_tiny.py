#!/usr/bin/env python3
"""Tests of the benchmark itself, on its tiny-size mode.

    python3 perfbench/test_tiny.py

Runs every workload untraced and traced at tiny sizes (seconds each, after
the first build) and checks that each run prints every metric named in
BENCHMARK.json with its unit, that its operations all pass, and that the
simulated-time metrics and identity digests repeat exactly at a fixed seed.
Also checks that run.py fails without printing a result when only
BENCHMARK.json and perfbench/ are present.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Metrics in simulated time: exact functions of the seed.
SIM_E2E = ("sim_steps", "sim_latency_p99_steps")


def run(workload, trace, seed=5, cwd=ROOT):
    """Runs the benchmark; returns (exit code, stdout lines, result or None)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
    return proc.returncode, lines, result


def identity_lines(lines):
    return [l for l in lines if l.startswith(("digest ", "fingerprint "))]


class TinyBenchmark(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertIsNotNone(result)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        want = {m["name"]: m["unit"] for m in expected}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_prints_every_end_to_end_metric_and_repeats_sim_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, lines, first = run(workload, 0)
                self.assertEqual(code, 0)
                self.check_result(first, SPEC["end_to_end"])
                code, again_lines, again = run(workload, 0)
                self.assertEqual(code, 0)
                for name in SIM_E2E:
                    self.assertEqual(first["metrics"][name]["value"],
                                     again["metrics"][name]["value"], name)
                self.assertEqual(identity_lines(lines), identity_lines(again_lines))

    def test_traced_prints_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, _, result = run(workload, 1)
                self.assertEqual(code, 0)
                self.check_result(result, SPEC["per_layer"])
                self.assertEqual(result["metrics"]["suite.checks_failed"]["value"], 0)

    def test_traced_routing_counts_repeat(self):
        _, lines_a, a = run(WORKLOADS[0], 1, seed=9)
        _, lines_b, b = run(WORKLOADS[0], 1, seed=9)
        exact = [n for n in a["metrics"]
                 if n.startswith("routing.") and n.endswith((".sim_steps", ".moves"))]
        self.assertEqual(len(exact), 16)
        for name in exact:
            self.assertEqual(a["metrics"][name]["value"], b["metrics"][name]["value"], name)
        self.assertEqual(identity_lines(lines_a), identity_lines(lines_b))
        self.assertTrue(any(l.startswith("fingerprint ") and "shards=1 " in l for l in lines_a))

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, lines, result = run(WORKLOADS[0], 0, cwd=tmp)
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
