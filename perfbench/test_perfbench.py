#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark (as run.py does) and checks, on small inputs
(--quick), that the composed V-cycle the traced run uses reproduces
partition_auto bit for bit, that every run prints exactly the metrics
BENCHMARK.json declares with their units, and that --seed changes the
inputs while the same seed reproduces cut and balance exactly.
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
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's entry point, imported for its build)

WORKLOADS = ("ga100k-flat", "sc-serve-mix")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, seed, trace):
    """One quick run of run.py; returns (exit code, parsed last line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.root = run.build_root()
        cls.off = run.build(cls.root, tracing=False)
        cls.on = run.build(cls.root, tracing=True)
        cls.env = run.child_env(cls.root)
        cls.spec = load_spec()

    def perfbench(self, binaries, *args):
        """Runs fhp_perfbench in a fresh directory; returns (report, dir)."""
        work = tempfile.mkdtemp(prefix="test-", dir=self.env["TMPDIR"])
        self.addCleanup(shutil.rmtree, work, True)
        proc = subprocess.run([binaries["runner"], "--lanes", "2", *args],
                              cwd=work, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.strip().splitlines()[-1]), work

    def test_composed_vcycle_is_bit_identical_to_partition_auto(self):
        # Flat and multilevel, unit and weighted, fm / flow / flow+fm.
        report, _ = self.perfbench(self.on, "--mode", "selftest", "--seed", "3")
        self.assertTrue(report["correct"])
        self.assertEqual(report["failed"], 0)
        self.assertEqual(report["attempted"], 12)

    def test_every_declared_metric_is_printed_with_its_unit(self):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[group]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result = run_bench(workload, 1, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    printed = {name: m["unit"]
                               for name, m in result["metrics"].items()}
                    self.assertEqual(printed, expected)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))

    def test_seed_changes_inputs_and_same_seed_reproduces_results(self):
        inputs = {}
        for seed in (1, 2, 1):
            _, work = self.perfbench(self.off, "--workload", "ga100k-flat",
                                  "--seed", str(seed), "--seconds", "1",
                                  "--mode", "companion", "--count", "1",
                                  "--quick")
            with open(os.path.join(work, "ga-0.hgr"), "rb") as f:
                inputs.setdefault(seed, []).append(f.read())
        self.assertEqual(inputs[1][0], inputs[1][1])
        self.assertNotEqual(inputs[1][0], inputs[2][0])

        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                quality = []
                for seed in (1, 1, 2):
                    code, result = run_bench(workload, seed, 0)
                    self.assertEqual(code, 0)
                    metrics = result["metrics"]
                    quality.append((metrics["cut"]["value"],
                                    metrics["max_side_ratio"]["value"]))
                self.assertEqual(quality[0], quality[1])
                self.assertNotEqual(quality[0], quality[2])


if __name__ == "__main__":
    unittest.main()
