// Uniform machine-readable reporting for the hand-rolled (non
// google-benchmark) bench drivers.
//
// Usage: construct one Report at the top of main. When the
// PPSC_BENCH_JSON environment variable names a path, the constructor
// enables the obs metric and trace registries and the destructor
// writes
//
//   {"bench": <name>, "git_rev": <rev>, "threads": <hw threads>,
//    "obs_compiled": <bool>, "wall_ms": <main wall time>,
//    "items_per_sec": <items/s or 0>, "counters": {...},
//    "histograms": {...}, "profile": {...}, "trace_dropped": <n>}
//
// to that path -- and nothing anywhere else. stdout belongs to the
// bench tables alone (the e2/e3/e17 golden transcripts diff stdout
// byte-for-byte, with PPSC_BENCH_JSON set), so this header never
// prints except to stderr on a write failure. Without PPSC_BENCH_JSON
// the Report is inert: no registry toggle, no file, no timing output.
//
// The metadata keys after `bench` are deliberately wall-clock-free:
// git_rev, thread count, and the compiled PPSC_OBS state identify a
// measurement environment reproducibly (scripts/bench_compare.py
// keys on them); timestamps would make every regeneration a diff.
//
// `counters` holds every registry counter (sorted keys) plus a
// flattened `<histogram>.count/.sum/.max` triple per histogram, so
// downstream tooling can treat the report as one flat numeric map;
// full bucket detail plus derived p50/p90/p99 quantile estimates stay
// available under `histograms`. `profile` is obs::profile over the
// collected spans, {name: {count, inclusive_ns, self_ns}}: the span
// counts are deterministic, the ns are the per-layer time split.
// `trace_dropped` counts spans lost to ring wrap; the profile is
// complete only when it is 0. The schema keys are validated by
// scripts/bench_report.sh and pinned by tests/test_obs.cpp.
//
// Independently, when PPSC_TRACE_JSON names a path the constructor
// enables the span trace registry (obs/trace.h) and the destructor
// exports the collected spans as Chrome trace-event JSON there --
// every hand-rolled bench gets a Perfetto-loadable trace for free.
//
// e11/e13 are google-benchmark binaries and do not use this header;
// their JSON comes from --benchmark_out=json (same script, same
// BENCH_<name>.json naming) and their mains handle PPSC_TRACE_JSON
// explicitly.

#ifndef PPSC_BENCH_REPORT_H
#define PPSC_BENCH_REPORT_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#ifndef PPSC_GIT_REV
#define PPSC_GIT_REV "unknown"
#endif

namespace ppsc {
namespace bench {

class Report {
 public:
  explicit Report(const char* name)
      : name_(name), start_(std::chrono::steady_clock::now()) {
    const char* path = std::getenv("PPSC_BENCH_JSON");
    if (path != nullptr && *path != '\0') {
      path_ = path;
      obs::MetricRegistry::global().set_enabled(true);
    }
    if (!path_.empty() || obs::trace_json_env() != nullptr) {
      obs::TraceRegistry::global().set_enabled(true);
    }
  }

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  // Work items this bench processed (rows, runs, inputs, steps --
  // whatever the bench's natural unit is); feeds items_per_sec.
  void add_items(double items) { items_ += items; }

  ~Report() {
    // The trace export is independent of the metric report: a bench
    // run may ask for either or both. Bench mains are single-threaded
    // at destruction time (sweep workers joined), the documented
    // export contract.
    obs::write_trace_if_requested();
    if (path_.empty()) return;
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start_;
    const double wall_ms = elapsed.count();
    const double items_per_sec =
        wall_ms > 0.0 ? items_ / (wall_ms / 1000.0) : 0.0;
    const obs::MetricSnapshot snapshot =
        obs::MetricRegistry::global().snapshot();

    obs::JsonWriter json;
    json.begin_object();
    json.key("bench").value(name_);
    json.key("git_rev").value(PPSC_GIT_REV);
    json.key("threads").value(static_cast<std::uint64_t>(
        std::thread::hardware_concurrency()));
    json.key("obs_compiled").value(PPSC_OBS_ENABLED != 0);
    json.key("wall_ms").value(wall_ms);
    json.key("items_per_sec").value(items_per_sec);
    json.key("counters").begin_object();
    for (const auto& entry : snapshot.counters) {
      json.key(entry.first).value(entry.second);
    }
    for (const auto& entry : snapshot.histograms) {
      json.key(entry.first + ".count").value(entry.second.count);
      json.key(entry.first + ".sum").value(entry.second.sum);
      json.key(entry.first + ".max").value(entry.second.max);
    }
    json.end_object();
    json.key("histograms");
    snapshot.write_histograms(json);
    json.key("profile").begin_object();
    for (const auto& entry :
         obs::profile(obs::TraceRegistry::global().collect())) {
      json.key(entry.first).begin_object();
      json.key("count").value(entry.second.count);
      json.key("inclusive_ns").value(entry.second.inclusive_ns);
      json.key("self_ns").value(entry.second.self_ns);
      json.end_object();
    }
    json.end_object();
    json.key("trace_dropped").value(obs::TraceRegistry::global().dropped());
    json.end_object();

    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "bench::Report: cannot open %s\n", path_.c_str());
      return;
    }
    std::fputs(json.str().c_str(), file);
    std::fputc('\n', file);
    std::fclose(file);
  }

 private:
  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
  double items_ = 0.0;
};

}  // namespace bench
}  // namespace ppsc

#endif  // PPSC_BENCH_REPORT_H
