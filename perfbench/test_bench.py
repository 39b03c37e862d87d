#!/usr/bin/env python3
"""Tests of the repository benchmark, at small sizes.

    python3 perfbench/test_bench.py        (from the repository root)

Each workload runs with --size small, untraced and traced, and must
pass its answer checks; every metric BENCHMARK.json names is emitted
with its unit; two traced runs give identical work counts; and a
directory holding only the benchmark files exits non-zero without a
result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("wide-small", "deep-large")
# Work-stealing between sharded workers depends on thread timing; it is
# the one count-valued metric that may differ between runs.
NONDETERMINISTIC_COUNTS = {"sim.shard.steals"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload, trace, seed=1, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, cwd=cwd, timeout=600, check=False)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0]), json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run(workload, trace)
                if proc.returncode != 0:
                    raise AssertionError(
                        f"{workload} --trace {trace} exited "
                        f"{proc.returncode}:\n{proc.stderr[-2000:]}")
                cls.results[workload, trace] = result_of(proc)

    def test_spec_lists_the_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(WORKLOADS))

    def test_spec_within_limits(self):
        spec = self.spec
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths",
                                        "per_layer", "run_seconds",
                                        "workloads"])
        name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
        names = [w["name"] for w in spec["workloads"]]
        for workload in spec["workloads"]:
            self.assertEqual(sorted(workload), ["name", "why"])
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
        for section, keys in (("end_to_end", ["better", "bound", "name",
                                              "unit"]),
                              ("per_layer", ["better", "name", "unit"])):
            for metric in spec[section]:
                self.assertEqual(sorted(metric), keys)
                self.assertRegex(metric["unit"], unit)
                names.append(metric["name"])
                if "bound" in metric:
                    self.assertLessEqual(metric["bound"], 0.25)
        for n in names:
            self.assertRegex(n, name)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")

    def test_answers_pass(self):
        for (workload, trace), (report, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(report["failures"], [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)

    def test_result_line_shape(self):
        for (workload, trace), (_, result) in self.results.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])

    def test_every_metric_emitted_with_its_unit(self):
        for (workload, trace), (_, result) in self.results.items():
            section = "per_layer" if trace else "end_to_end"
            expected = {m["name"]: m["unit"] for m in self.spec[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(emitted, expected)
                for metric in self.spec[section]:
                    self.assertIn(metric["better"], ("higher", "lower"))

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            _, result = self.results[workload, 0]
            for name, metric in result["metrics"].items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_layers_are_exercised_where_claimed(self):
        def value(workload, name):
            return self.results[workload, 1][1]["metrics"][name]["value"]

        self.assertGreater(value("wide-small", "verify.self_s"), 0)
        self.assertGreater(value("wide-small", "verify.wellspec_self_s"), 0)
        self.assertGreater(value("wide-small", "sim.agent.draws"), 0)
        self.assertGreater(value("deep-large", "petri.coverability.comparisons"),
                           0)
        self.assertGreater(value("deep-large", "sim.expected_time.pivots"), 0)
        self.assertGreater(value("deep-large", "sim.census.productive"), 0)
        self.assertGreater(value("deep-large", "sim.shard.draws"), 0)
        # Each workload bypasses the other's mechanisms.
        self.assertEqual(value("wide-small", "petri.coverability.comparisons"),
                         0)
        self.assertEqual(value("wide-small", "sim.expected_time.pivots"), 0)
        self.assertEqual(value("wide-small", "sim.census.productive"), 0)
        self.assertEqual(value("wide-small", "sim.shard.draws"), 0)
        self.assertEqual(value("deep-large", "verify.wellspec_self_s"), 0)
        self.assertEqual(value("deep-large", "sim.agent.draws"), 0)
        # Exploring is costlier per configuration on the wide nets.
        self.assertGreater(value("wide-small", "petri.explore.ns_per_config"),
                           value("deep-large", "petri.explore.ns_per_config"))

    def test_traced_counts_repeat_exactly(self):
        counts = {m["name"] for m in self.spec["per_layer"]
                  if m["unit"] == "count"} - NONDETERMINISTIC_COUNTS
        for workload in WORKLOADS:
            proc = run(workload, 1)
            self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
            again = result_of(proc)[1]["metrics"]
            first = self.results[workload, 1][1]["metrics"]
            for name in sorted(counts):
                with self.subTest(workload=workload, metric=name):
                    self.assertEqual(again[name]["value"],
                                     first[name]["value"])

    def test_seed_is_recorded(self):
        report, _ = self.results["wide-small", 0]
        self.assertEqual(report["seed"], 1)
        for key in ("nproc", "l1d_bytes", "l2_bytes", "l3_bytes", "compiler",
                    "build_type", "ppsc_obs", "git_rev"):
            self.assertIn(key, report["stamp"])

    def test_fails_without_the_source_tree(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("wide-small", 0, cwd=bare,
                       script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
