#!/usr/bin/env python3
"""Self-tests of the dlw benchmark.  Run from the checkout root:

    python3 perfbench/test_run.py

They build the benchmark (as run.py does) and use the --short input
sizes, so they finish in well under a minute once built.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402


def run_py(*args):
    p = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py")]
                       + list(args), capture_output=True, text=True)
    return p.returncode, p.stdout.splitlines()


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.tool, cls.probe = run.build()

    def test_every_metric_printed_per_workload_row(self):
        rc, lines = run_py("--workload", "all", "--short",
                           "--seconds", "1")
        self.assertEqual(rc, 0)
        header = lines[-5].split("  ")
        self.assertEqual(header[0], "workload")
        self.assertEqual(header[1:], ["%s [%s]" % kv
                                      for kv in run.E2E_UNITS.items()])
        rows = [line.split("  ") for line in lines[-4:-1]]
        self.assertEqual([r[0] for r in rows], list(run.WORKLOADS))
        for r in rows:
            self.assertEqual(len(r), 1 + len(run.E2E_UNITS))
            for cell in r[1:]:
                self.assertGreater(float(cell), 0.0)
        res = json.loads(lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)

    def test_traced_run_prints_every_layer_metric(self):
        rc, lines = run_py("--workload", "analyze-csv", "--short",
                           "--seconds", "1", "--trace", "1")
        self.assertEqual(rc, 0)
        res = json.loads(lines[-1])
        self.assertTrue(res["correct"])
        self.assertEqual(list(res["metrics"]), list(run.LAYER_UNITS))
        for k, unit in run.LAYER_UNITS.items():
            self.assertEqual(res["metrics"][k]["unit"], unit)

    def test_benchmark_json_names_the_same_metrics(self):
        path = os.path.join(BENCH_DIR, "..", "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        # dlwd-stream runs but is not gated (README.md says why).
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         [w for w in run.WORKLOADS if w != "dlwd-stream"])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         dict(run.E2E_UNITS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         dict(run.LAYER_UNITS))

    def test_corrupted_reference_counts_as_failed(self):
        for name, runner in run.RUNNERS.items():
            with self.subTest(workload=name):
                m, attempted, failed = runner(self.tool, run.SHORT, 3, 0.5,
                                              corrupt=True)
                self.assertGreater(failed, 0)
                self.assertLess(m["ok_frac"], 1.0)
                self.assertLessEqual(failed, attempted)


if __name__ == "__main__":
    unittest.main()
