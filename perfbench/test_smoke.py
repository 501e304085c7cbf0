#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny scale, untraced and
traced, must exit 0, pass its correctness gate and print every metric that
BENCHMARK.json lists for the mode, with its unit.

    python3 perfbench/test_smoke.py

Run from the repository root; the first run builds the benchmark.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check(self, workload, trace):
        # run.py exits non-zero when the result lacks a metric BENCHMARK.json
        # lists for the mode, or carries a wrong unit.
        code, lines = run(workload, trace)
        self.assertEqual(code, 0, f"{workload} trace={trace} failed")
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_every_workload(self):
        for w in self.spec["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_unknown_workload_fails_without_result(self):
        code, lines = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
