#!/usr/bin/env python3
"""Smoke tests of the repository benchmark.

Runs every workload of BENCHMARK.json, and serve-gemm, at tiny knobs
(grid=9 ksteps=8 tiles=1), untraced and traced, and checks the result
line: its keys,
that every output check passed, and that the metric names and units are
exactly BENCHMARK.json's end_to_end (untraced) or per_layer (traced)
list. Also checks that a directory holding only the benchmark fails
without printing a result. Run from the repository root:

    python3 perfbench/tests/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
# Runnable workloads outside BENCHMARK.json (see perfbench/README.md).
UNGATED = ["serve-gemm"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(cwd, workload, trace):
    spec = load_spec()
    cmd = spec["command"] + ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", str(trace),
                             "--knobs", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = {m["name"]: m["unit"] for m in expected}
        self.assertEqual(got, want)
        return result["metrics"]

    def test_every_workload_prints_its_metrics(self):
        spec = load_spec()
        for name in [w["name"] for w in spec["workloads"]] + UNGATED:
            with self.subTest(workload=name, trace=0):
                m = self.check_result(run_bench(ROOT, name, 0),
                                      spec["end_to_end"])
                for e in spec["end_to_end"]:
                    self.assertGreater(m[e["name"]]["value"], 0)
            with self.subTest(workload=name, trace=1):
                self.check_result(run_bench(ROOT, name, 1),
                                  spec["per_layer"])

    def test_workload_design(self):
        # The traced tiny sweep on a cold store simulates; on a warm
        # store it only hits.
        cold = self.check_result(run_bench(ROOT, "fig14-cold", 1),
                                 load_spec()["per_layer"])
        warm = self.check_result(run_bench(ROOT, "fig14-warm", 1),
                                 load_spec()["per_layer"])
        self.assertGreater(cold["dnn.simulations"]["value"], 0)
        self.assertEqual(warm["dnn.simulations"]["value"], 0)
        self.assertEqual(warm["cache.hit_ratio"]["value"], 1)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        spec = load_spec()
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, spec["workloads"][0]["name"], 0)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
