#!/usr/bin/env python3
"""Bench-trajectory regression gate.

Diffs a fresh set of BENCH_<name>.json files (produced by
scripts/bench_report.sh) against the committed baselines at the repo
root and renders a per-bench delta table. Two file kinds, matching the
two bench families:

  * report kind (bench/report.h): compares wall_ms and items_per_sec
    against relative thresholds, and requires *exact* equality for
    every registry counter and for every span count in the `profile`
    (`profile.<span>.count`; skipped with a warn row when either side's
    trace ring wrapped) -- the engines are deterministic under fixed
    seeds, so configs/edges/iterations drifting is a correctness
    change, not noise. The --report table also carries one `info` row
    per span with its self_ns, and a wall_ms REGRESS row names the
    span whose self_ns grew the most: the layer that moved.
  * gbench kind (--benchmark_out=json, e11/e13): matches benchmarks by
    name, compares real_time and items_per_second against the same
    thresholds, and requires exact equality for the custom counters
    (basis_peak, comparisons, ...) attached by the bench drivers.

Timing comparisons are deliberately loose (default: fail only when a
bench gets >50% slower) because CI machines are noisy; the exact
counter invariants are the sharp edge of the gate. File presence is
part of the contract too: a committed baseline with no fresh
counterpart (bench skipped, renamed, or crashed before writing) is
always a failing INVARIANT row, and under --strict a fresh report
without a committed baseline is as well -- coverage changes must not
hide behind a warning line. Exit status is 0
unless --strict is given, in which case any regression or invariant
violation exits 1 -- CI runs with --strict inside a non-blocking step
so regressions are reported on every run without gating merges on
shared-runner timing noise.

  scripts/bench_compare.py --fresh-dir bench-reports [--strict]
  scripts/bench_compare.py --fresh-dir bench-reports --update-baseline

--update-baseline copies the fresh files over the committed baselines
(use after an intentional perf or counter change, then commit the
diff).
"""

import argparse
import glob
import json
import os
import shutil
import sys

# Per-benchmark keys that google-benchmark itself emits; everything
# else in a benchmark object is a user counter and must be exact.
GBENCH_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads",
    "iterations", "real_time", "cpu_time", "time_unit",
    "items_per_second", "aggregate_name", "aggregate_unit", "label",
    "error_occurred", "error_message",
}

class Row:
    def __init__(self, bench, metric, base, fresh, status, note=""):
        self.bench = bench
        self.metric = metric
        self.base = base
        self.fresh = fresh
        # "ok" | "REGRESS" | "INVARIANT" | "warn" | "info"
        self.status = status
        self.note = note

    def delta_pct(self):
        if isinstance(self.base, (int, float)) and isinstance(
                self.fresh, (int, float)) and self.base:
            return 100.0 * (self.fresh - self.base) / self.base
        return None


def fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def kind_of(data):
    return "gbench" if "benchmarks" in data and "context" in data else "report"


def compare_timing(rows, bench, metric, base, fresh, slower_is, tol):
    """slower_is: +1 when larger fresh is worse, -1 when smaller is worse."""
    if base is None or fresh is None or base == 0:
        return
    worse = (fresh > base * (1.0 + tol)) if slower_is > 0 else (
        fresh < base * (1.0 - tol))
    rows.append(Row(bench, metric, base, fresh,
                    "REGRESS" if worse else "ok"))


def compare_exact(rows, bench, prefix, base_map, fresh_map):
    for key in sorted(set(base_map) | set(fresh_map)):
        base, fresh = base_map.get(key), fresh_map.get(key)
        if base == fresh:
            continue
        note = ("missing in fresh" if fresh is None
                else "missing in baseline" if base is None else "drift")
        rows.append(Row(bench, f"{prefix}{key}", base, fresh, "INVARIANT",
                        note))


def compare_report(bench, base, fresh, args):
    rows = []
    compare_timing(rows, bench, "wall_ms", base.get("wall_ms"),
                   fresh.get("wall_ms"), +1, args.timing_tolerance)
    compare_timing(rows, bench, "items_per_sec", base.get("items_per_sec"),
                   fresh.get("items_per_sec"), -1, args.timing_tolerance)
    compare_exact(rows, bench, "counters.", base.get("counters", {}),
                  fresh.get("counters", {}))
    compare_profile(rows, bench, base, fresh)
    return rows


def compare_profile(rows, bench, base, fresh):
    base_prof, fresh_prof = base.get("profile", {}), fresh.get("profile", {})
    dropped = (base.get("trace_dropped", 0), fresh.get("trace_dropped", 0))
    if max(dropped) > 0:
        rows.append(Row(bench, "trace_dropped", dropped[0], dropped[1],
                        "warn", "trace ring wrapped; span counts skipped"))
    else:
        compare_exact(
            rows, bench, "profile.",
            {f"{span}.count": p["count"] for span, p in base_prof.items()},
            {f"{span}.count": p["count"] for span, p in fresh_prof.items()})
    growth = {}
    for span in sorted(set(base_prof) | set(fresh_prof)):
        b = base_prof.get(span, {}).get("self_ns")
        f = fresh_prof.get(span, {}).get("self_ns")
        rows.append(Row(bench, f"profile.{span}.self_ns", b, f, "info"))
        growth[span] = (f or 0) - (b or 0)
    wall = next((r for r in rows if r.metric == "wall_ms"), None)
    if wall is not None and wall.status == "REGRESS" and growth:
        span = max(growth, key=growth.get)
        if growth[span] > 0:
            wall.note = (f"layer moved: {span} self_ns "
                         f"+{growth[span] / 1e6:.3g} ms")


def compare_gbench(bench, base, fresh, args):
    rows = []
    base_by_name = {b["name"]: b for b in base.get("benchmarks", [])}
    fresh_by_name = {b["name"]: b for b in fresh.get("benchmarks", [])}
    for name in sorted(set(base_by_name) | set(fresh_by_name)):
        b, f = base_by_name.get(name), fresh_by_name.get(name)
        if b is None or f is None:
            rows.append(Row(bench, name, "present" if b else "absent",
                            "present" if f else "absent", "INVARIANT",
                            "benchmark set changed"))
            continue
        compare_timing(rows, bench, f"{name}:real_time", b.get("real_time"),
                       f.get("real_time"), +1, args.timing_tolerance)
        compare_timing(rows, bench, f"{name}:items_per_second",
                       b.get("items_per_second"), f.get("items_per_second"),
                       -1, args.timing_tolerance)
        compare_exact(
            rows, bench, f"{name}:",
            {k: v for k, v in b.items() if k not in GBENCH_STANDARD_KEYS},
            {k: v for k, v in f.items() if k not in GBENCH_STANDARD_KEYS})
    return rows


def render(rows, out):
    out.write("| bench | metric | baseline | fresh | delta | status |\n")
    out.write("|---|---|---:|---:|---:|---|\n")
    for row in rows:
        delta = row.delta_pct()
        delta_s = f"{delta:+.1f}%" if delta is not None else "-"
        status = row.status + (f" ({row.note})" if row.note else "")
        out.write(f"| {row.bench} | {row.metric} | {fmt(row.base)} "
                  f"| {fmt(row.fresh)} | {delta_s} | {status} |\n")


def main():
    parser = argparse.ArgumentParser(
        description="diff fresh BENCH_*.json against committed baselines")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory of committed BENCH_*.json (default .)")
    parser.add_argument("--fresh-dir", required=True,
                        help="directory of freshly generated BENCH_*.json")
    parser.add_argument("--timing-tolerance", type=float, default=0.5,
                        help="relative timing threshold (default 0.5 = 50%%)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on any regression or invariant drift")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy fresh files over the baselines and exit")
    parser.add_argument("--report", default=None,
                        help="also write the markdown table to this path")
    args = parser.parse_args()

    fresh_paths = sorted(glob.glob(os.path.join(args.fresh_dir,
                                                "BENCH_*.json")))
    if not fresh_paths:
        sys.exit(f"error: no BENCH_*.json in {args.fresh_dir}")

    if args.update_baseline:
        for path in fresh_paths:
            dest = os.path.join(args.baseline_dir, os.path.basename(path))
            shutil.copyfile(path, dest)
            print(f"baseline <- {path}")
        return 0

    rows, warnings = [], []
    seen = set()
    for path in fresh_paths:
        name = os.path.basename(path)
        seen.add(name)
        base_path = os.path.join(args.baseline_dir, name)
        with open(path) as f:
            fresh = json.load(f)
        if not os.path.exists(base_path):
            # A fresh report without a baseline is benign while a bench
            # is being added, but under --strict the baseline set is the
            # contract: flag it as drift so it cannot land unnoticed.
            if args.strict:
                bench = name[len("BENCH_"):-len(".json")]
                rows.append(Row(bench, "presence", "absent", "present",
                                "INVARIANT", "no committed baseline"))
            else:
                warnings.append(f"{name}: no committed baseline (new bench?)")
            continue
        with open(base_path) as f:
            base = json.load(f)
        bench = name[len("BENCH_"):-len(".json")]
        if kind_of(base) != kind_of(fresh):
            rows.append(Row(bench, "schema", kind_of(base), kind_of(fresh),
                            "INVARIANT", "file kind changed"))
            continue
        compare = compare_gbench if kind_of(base) == "gbench" else \
            compare_report
        rows.extend(compare(bench, base, fresh, args))

    for base_path in sorted(glob.glob(os.path.join(args.baseline_dir,
                                                   "BENCH_*.json"))):
        name = os.path.basename(base_path)
        if name not in seen:
            # A committed baseline whose bench produced nothing means
            # coverage silently shrank (bench skipped, renamed, or its
            # binary failed before writing) -- that is drift, not noise,
            # so it is a failing row rather than a warning.
            bench = name[len("BENCH_"):-len(".json")]
            rows.append(Row(bench, "presence", "present", "absent",
                            "INVARIANT",
                            "baseline has no fresh counterpart"))

    bad = [r for r in rows if r.status in ("REGRESS", "INVARIANT")]
    # The full table is the artifact; stdout gets only the problems plus
    # a one-line verdict so CI logs stay scannable.
    if bad:
        render(bad, sys.stdout)
    for warning in warnings:
        print(f"warn: {warning}")
    benches = len(seen)
    print(f"bench_compare: {benches} benches, {len(rows)} comparisons, "
          f"{len(bad)} regressions/invariant-drifts, "
          f"{len(warnings)} warnings")
    if args.report:
        with open(args.report, "w") as out:
            out.write("# Bench comparison\n\n")
            render(rows, out)
            out.write(f"\n{benches} benches, {len(rows)} comparisons, "
                      f"{len(bad)} regressions/invariant-drifts.\n")
            for warning in warnings:
                out.write(f"- warn: {warning}\n")
    if bad and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
