#!/usr/bin/env python3
"""Self-test of the bench regression gate (scripts/bench_compare.py).

Runs the gate on synthetic report-kind BENCH_*.json files in temporary
directories and checks the behaviour CI relies on:

  * a span whose self_ns doubles, together with wall_ms, is named as
    the layer that moved in the wall_ms row of the --report table;
  * span counts are exact invariants, skipped when a trace ring
    wrapped;
  * a baseline with no fresh counterpart fails --strict.

Registered as the CTest `lint.bench_compare` (label `lint`).

Usage: scripts/test_bench_compare.py   (exit 0 pass, 1 fail)
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

GATE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "bench_compare.py")


def report(bench, wall_ms, profile, trace_dropped=0):
    """A report-kind BENCH_<bench>.json; profile maps span -> (count,
    self_ns), with inclusive_ns = self_ns (leaf spans)."""
    return {
        "bench": bench, "git_rev": "test", "threads": 1,
        "obs_compiled": True, "wall_ms": wall_ms, "items_per_sec": 0.0,
        "counters": {"explore.configs": 161}, "histograms": {},
        "profile": {span: {"count": count, "inclusive_ns": self_ns,
                           "self_ns": self_ns}
                    for span, (count, self_ns) in profile.items()},
        "trace_dropped": trace_dropped,
    }


BASE_PROFILE = {"explore": (4, 3_000_000), "verify": (4, 1_000_000)}


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.tmp.name, "base")
        self.fresh_dir = os.path.join(self.tmp.name, "fresh")
        os.mkdir(self.base_dir)
        os.mkdir(self.fresh_dir)
        self.table = os.path.join(self.tmp.name, "table.md")

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, directory, data):
        path = os.path.join(directory, f"BENCH_{data['bench']}.json")
        with open(path, "w") as f:
            json.dump(data, f)

    def gate(self):
        """Runs the gate with --strict; returns (exit code, stdout,
        report table)."""
        proc = subprocess.run(
            [sys.executable, GATE, "--baseline-dir", self.base_dir,
             "--fresh-dir", self.fresh_dir, "--strict",
             "--report", self.table],
            capture_output=True, text=True, check=False)
        with open(self.table) as f:
            return proc.returncode, proc.stdout, f.read()

    def row(self, table, metric):
        lines = [line for line in table.splitlines()
                 if f"| {metric} |" in line]
        self.assertEqual(len(lines), 1, f"one {metric} row in:\n{table}")
        return lines[0]

    def test_identical_reports_pass(self):
        self.write(self.base_dir, report("b", 4.0, BASE_PROFILE))
        self.write(self.fresh_dir, report("b", 4.0, BASE_PROFILE))
        code, _, table = self.gate()
        self.assertEqual(code, 0, table)
        self.assertIn("| info |", self.row(table, "profile.verify.self_ns"))

    def test_doubled_layer_is_named(self):
        slow = dict(BASE_PROFILE, verify=(4, 2_000_000))
        self.write(self.base_dir, report("b", 4.0, BASE_PROFILE))
        self.write(self.fresh_dir, report("b", 8.0, slow))
        code, out, table = self.gate()
        self.assertEqual(code, 1, out)
        wall = self.row(table, "wall_ms")
        self.assertIn("REGRESS", wall)
        self.assertIn("layer moved: verify", wall)
        # self_ns rows are information only; they never fail the gate.
        self.assertIn("| info |", self.row(table, "profile.verify.self_ns"))
        self.assertNotIn("INVARIANT", table)

    def test_span_count_drift_is_an_invariant(self):
        drift = dict(BASE_PROFILE, explore=(5, 3_000_000))
        self.write(self.base_dir, report("b", 4.0, BASE_PROFILE))
        self.write(self.fresh_dir, report("b", 4.0, drift))
        code, out, _ = self.gate()
        self.assertEqual(code, 1)
        self.assertIn("profile.explore.count", out)
        self.assertIn("INVARIANT", out)

    def test_wrapped_trace_skips_span_counts(self):
        drift = dict(BASE_PROFILE, explore=(5, 3_000_000))
        self.write(self.base_dir, report("b", 4.0, BASE_PROFILE))
        self.write(self.fresh_dir, report("b", 4.0, drift, trace_dropped=7))
        code, _, table = self.gate()
        self.assertEqual(code, 0, table)
        self.assertIn("warn", self.row(table, "trace_dropped"))

    def test_missing_counterpart_fails_strict(self):
        self.write(self.base_dir, report("kept", 4.0, BASE_PROFILE))
        self.write(self.base_dir, report("lost", 4.0, BASE_PROFILE))
        self.write(self.fresh_dir, report("kept", 4.0, BASE_PROFILE))
        code, out, _ = self.gate()
        self.assertEqual(code, 1, out)
        self.assertIn("baseline has no fresh counterpart", out)


if __name__ == "__main__":
    unittest.main()
