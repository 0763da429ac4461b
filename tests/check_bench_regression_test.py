#!/usr/bin/env python3
"""Tests for scripts/check_bench_regression.py.

Every committed BENCH_*.json must be in the shared schema and pass its own gates when checked
against itself; small fixtures pin the gate semantics by exit code and annotation.
Run from anywhere: python3 tests/check_bench_regression_test.py
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "scripts", "check_bench_regression.py")


def bench_doc(measured, gates, scale=1):
    host = {"cores": 1, "compiler": "GNU-0", "build_type": "Release", "git_sha": "0000000"}
    return {"bench": "fixture", "scale": scale, "host": host, "measured": measured,
            "projected": {}, "gates": gates}


class CommittedFiles(unittest.TestCase):
    def test_every_committed_file_passes_against_itself(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
        self.assertEqual(len(paths), 7, paths)
        for path in paths:
            with self.subTest(path=os.path.basename(path)):
                proc = subprocess.run([sys.executable, CHECKER, path, path],
                                      capture_output=True, text=True)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertNotIn("::error", proc.stdout)
                with open(path) as f:
                    doc = json.load(f)
                self.assertEqual(os.path.basename(path), f"BENCH_{doc['bench']}.json")
                self.assertTrue(doc["gates"], "a BENCH file without gates checks nothing")


class Fixtures(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def check(self, baseline, fresh):
        """Writes both documents (baseline None = no file) and runs the checker."""
        paths = []
        for name, doc in (("baseline.json", baseline), ("fresh.json", fresh)):
            paths.append(os.path.join(self.dir.name, name))
            if doc is not None:
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
        proc = subprocess.run([sys.executable, CHECKER, *paths], capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def test_broken_hard_gate_exits_1(self):
        gates = [{"metric": "deterministic", "direction": "equal", "bound": True, "hard": True}]
        code, out = self.check(bench_doc({"deterministic": True}, gates),
                               bench_doc({"deterministic": False}, gates))
        self.assertEqual(code, 1, out)
        self.assertIn("::error", out)

    def test_broken_advisory_gate_exits_0_and_warns(self):
        gates = [{"metric": "rate", "direction": "higher", "tolerance": 0.2, "hard": False}]
        code, out = self.check(bench_doc({"rate": 100}, gates), bench_doc({"rate": 79}, gates))
        self.assertEqual(code, 0, out)
        self.assertIn("::warning", out)
        code, out = self.check(bench_doc({"rate": 100}, gates), bench_doc({"rate": 81}, gates))
        self.assertEqual(code, 0, out)
        self.assertNotIn("::warning", out)

    def test_missing_baseline_exits_0_and_still_enforces_bounds(self):
        advisory = [{"metric": "x", "direction": "lower", "bound": 5, "hard": False}]
        code, out = self.check(None, bench_doc({"x": 6}, advisory))
        self.assertEqual(code, 0, out)
        self.assertIn("x: 6 breaks the bound", out)
        hard = [{"metric": "x", "direction": "lower", "bound": 0, "hard": True}]
        code, out = self.check(None, bench_doc({"x": 1}, hard))
        self.assertEqual(code, 1, out)

    def test_scale_mismatch_skips_only_same_scale_comparisons(self):
        gates = [{"metric": "a", "direction": "higher", "tolerance": 0.2, "hard": False,
                  "same_scale": True},
                 {"metric": "b", "direction": "higher", "tolerance": 0.2, "hard": False}]
        code, out = self.check(bench_doc({"a": 100, "b": 100}, gates, scale=1),
                               bench_doc({"a": 50, "b": 50}, gates, scale=0.1))
        self.assertEqual(code, 0, out)
        self.assertIn("::warning title=Bench gate (fixture)::b:", out)
        self.assertNotIn("::warning title=Bench gate (fixture)::a:", out)

    def test_gate_dropped_from_fresh_file_warns(self):
        kept = {"metric": "kept", "direction": "lower", "bound": 1, "hard": False}
        dropped = {"metric": "gone", "direction": "lower", "bound": 1, "hard": False}
        code, out = self.check(bench_doc({"kept": 0, "gone": 0}, [kept, dropped]),
                               bench_doc({"kept": 0}, [kept]))
        self.assertEqual(code, 0, out)
        self.assertIn("gone: gate in the baseline, dropped from the fresh file", out)

    def test_record_is_judged_by_its_median(self):
        gates = [{"metric": "wall_ms", "direction": "lower", "bound": 20, "hard": True}]
        record = {"median": 10, "min": 1, "max": 100, "n": 3}
        code, out = self.check(None, bench_doc({"wall_ms": record}, gates))
        self.assertEqual(code, 0, out)

    def test_fresh_file_outside_the_schema_exits_1(self):
        code, out = self.check(None, {"bench": "fixture", "points": []})
        self.assertEqual(code, 1, out)
        self.assertIn("::error title=Bench schema", out)


if __name__ == "__main__":
    unittest.main()
