#!/usr/bin/env sh
# Runs every buildable bench with machine-readable reporting and
# validates the collected BENCH_<name>.json files.
#
#   scripts/bench_report.sh [build-dir] [output-dir]
#
# build-dir defaults to ./build, output-dir to the repo root (the
# BENCH_*.json files live next to README.md so a checkout carries the
# latest measured numbers). Hand-rolled benches emit through
# bench/report.h (PPSC_BENCH_JSON env); google-benchmark binaries (e11,
# e13) emit through --benchmark_out=json. Every bench also runs with
# PPSC_TRACE_JSON=<output-dir>/TRACE_<name>.json, so each run leaves a
# Perfetto-loadable Chrome trace next to its report; the traces are
# run artifacts (gitignored), not baselines.
#
# Every file is then validated with python3: parseable JSON plus the
# schema keys the downstream tooling (scripts/bench_compare.py) relies
# on, and the Chrome trace-event shape for the TRACE files. Metadata
# is wall-clock-free by construction: bench/report.h stamps git_rev /
# threads / obs_compiled and nothing time-of-day-shaped, and the
# google-benchmark context gets its `date` and `load_avg` stripped and
# git_rev / ppsc_obs / ppsc_build_type stamps added, so regenerating
# baselines on the same commit and machine diffs clean. gbench's own
# `library_build_type` describes libbenchmark, not ppsc, so it is
# dropped. Any bench failure, missing file, or schema violation exits
# nonzero -- CI runs this as a blocking step.
set -eu

cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-.}"

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (configure+build first)" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
PPSC_OBS_STATE="$(sed -n 's/^PPSC_OBS:BOOL=//p' "$BUILD_DIR/CMakeCache.txt" \
  2>/dev/null || true)"
PPSC_OBS_STATE="${PPSC_OBS_STATE:-unknown}"
PPSC_BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
  "$BUILD_DIR/CMakeCache.txt" 2>/dev/null || true)"
PPSC_BUILD_TYPE="${PPSC_BUILD_TYPE:-unknown}"

# The two bench families emit different schemas; validate each
# accordingly. google-benchmark's schema is pinned upstream, so only
# its presence markers (and our reproducibility stamps) are checked.
validate() {
  # $1 = json path, $2 = "report" | "gbench" | "trace"
  python3 - "$1" "$2" <<'EOF'
import json
import sys

path, kind = sys.argv[1], sys.argv[2]
with open(path) as f:
    data = json.load(f)
if kind == "report":
    required = ["bench", "git_rev", "threads", "obs_compiled", "wall_ms",
                "items_per_sec", "counters", "histograms", "profile",
                "trace_dropped"]
    missing = [key for key in required if key not in data]
    if missing:
        sys.exit(f"{path}: missing schema keys {missing}")
elif kind == "gbench":
    missing = [key for key in ["context", "benchmarks"] if key not in data]
    if missing:
        sys.exit(f"{path}: missing schema keys {missing}")
    ctx = data["context"]
    for stale in ("date", "load_avg", "library_build_type"):
        if stale in ctx:
            sys.exit(f"{path}: context.{stale} not stripped")
    for stamp in ("git_rev", "ppsc_obs", "ppsc_build_type"):
        if stamp not in ctx:
            sys.exit(f"{path}: context.{stamp} stamp missing")
else:  # Chrome trace-event JSON (Perfetto-loadable)
    events = data.get("traceEvents")
    if not isinstance(events, list):
        sys.exit(f"{path}: no traceEvents array")
    for event in events:
        missing = [key for key in
                   ("name", "cat", "ph", "ts", "dur", "pid", "tid")
                   if key not in event]
        if missing:
            sys.exit(f"{path}: event missing {missing}: {event}")
        if event["ph"] != "X":
            sys.exit(f"{path}: unexpected phase {event['ph']!r}")
EOF
}

# Strip the wall-clock context fields google-benchmark stamps (and its
# libbenchmark build type) and add the reproducible ones, keeping both
# bench families' metadata on the same footing.
stamp_gbench() {
  # $1 = json path
  python3 - "$1" "$GIT_REV" "$PPSC_OBS_STATE" "$PPSC_BUILD_TYPE" <<'EOF'
import json
import sys

path, git_rev, ppsc_obs, build_type = sys.argv[1:5]
with open(path) as f:
    data = json.load(f)
ctx = data.get("context", {})
for stale in ("date", "load_avg", "library_build_type"):
    ctx.pop(stale, None)
ctx["git_rev"] = git_rev
ctx["ppsc_obs"] = ppsc_obs
ctx["ppsc_build_type"] = build_type
with open(path, "w") as f:
    json.dump(data, f, indent=1)
    f.write("\n")
EOF
}

status=0
ran=0

check_trace() {
  name="$1"
  trace="$2"
  if [ ! -s "$trace" ]; then
    echo "FAIL $name: no trace at $trace" >&2
    status=1
    return 0
  fi
  if ! validate "$trace" trace; then
    status=1
  fi
}

run_report_bench() {
  name="$1"
  bin="$BUILD_DIR/$name"
  json="$OUT_DIR/BENCH_$name.json"
  trace="$OUT_DIR/TRACE_$name.json"
  if [ ! -x "$bin" ]; then
    echo "skip $name (not built)"
    return 0
  fi
  echo "run  $name"
  if ! PPSC_BENCH_JSON="$json" PPSC_TRACE_JSON="$trace" "$bin" > /dev/null
  then
    echo "FAIL $name: bench exited nonzero" >&2
    status=1
    return 0
  fi
  if [ ! -s "$json" ]; then
    echo "FAIL $name: no report at $json" >&2
    status=1
    return 0
  fi
  if ! validate "$json" report; then
    status=1
    return 0
  fi
  check_trace "$name" "$trace"
  ran=$((ran + 1))
}

run_gbench_bench() {
  name="$1"
  bin="$BUILD_DIR/$name"
  json="$OUT_DIR/BENCH_$name.json"
  trace="$OUT_DIR/TRACE_$name.json"
  if [ ! -x "$bin" ]; then
    echo "skip $name (google-benchmark not available at configure time)"
    return 0
  fi
  echo "run  $name"
  if ! PPSC_TRACE_JSON="$trace" "$bin" --benchmark_min_time=0.01 \
      --benchmark_out="$json" --benchmark_out_format=json > /dev/null; then
    echo "FAIL $name: bench exited nonzero" >&2
    status=1
    return 0
  fi
  stamp_gbench "$json"
  if ! validate "$json" gbench; then
    status=1
    return 0
  fi
  check_trace "$name" "$trace"
  ran=$((ran + 1))
}

# Keep in sync with PPSC_BENCH_BUILDABLE in CMakeLists.txt.
for name in \
    e1_landscape e2_example41 e3_example42 e4_rackoff e5_stabilized \
    e6_bottom e7_euler e8_pottier e9_theorem43 e10_corollary44 \
    e12_convergence e14_width_ablation e15_scheduler_ablation \
    e16_wellspec e17_boolean_closure e18_exact_convergence \
    e19_census_profile; do
  run_report_bench "$name"
done

for name in e11_sim_throughput e13_coverability; do
  run_gbench_bench "$name"
done

if [ "$ran" -eq 0 ]; then
  echo "error: no bench produced a report" >&2
  exit 1
fi
if [ "$status" -ne 0 ]; then
  echo "bench report: FAILED" >&2
  exit "$status"
fi
echo "bench report: $ran schema-valid BENCH_*.json (+ traces) in $OUT_DIR"
