// Near-zero-overhead engine metrics: counters and log-bucketed
// histograms behind one process-wide MetricRegistry. Wall-clock time
// is not a metric: spans (obs/trace.h) are the one timer, and
// obs::profile turns them into per-span totals.
//
// Design constraints, in the order they shaped the code:
//
//  * Hot loops never talk to the registry. Engines accumulate into
//    plain stack- or member-local PODs (petri::ExploreStats,
//    coverability::BackwardBasisStats, the scheduler counters) and
//    publish once per operation, so the per-step cost of metrics is a
//    few integer increments.
//  * Publishing is per-thread: each thread writes to its own sheet
//    (allocated on first use, owned by the registry) and sheets are
//    merged only at snapshot time. Counter merges are integer sums and
//    histogram merges are bucketwise sums -- both order-independent --
//    so a snapshot is bit-identical no matter how runs were spread
//    over threads. sim/parallel's 1-vs-N determinism is untouched
//    because metrics never feed back into simulation state or RNGs.
//  * Metrics are opt-in at runtime: the registry starts disabled
//    unless the PPSC_OBS environment variable is "1"/"true"/"on", and
//    bench/report.h enables it when PPSC_BENCH_JSON asks for a report.
//    When disabled, publish calls are a relaxed atomic load + branch.
//  * Compiling with -DPPSC_OBS=OFF (CMake) sets PPSC_OBS_ENABLED=0 and
//    the publish/record paths compile to empty inline bodies.
//
// Metric naming convention: `engine.metric`, lowercase, e.g.
// `explore.configs`, `coverability.comparisons`, `sim.agent.draws`.
// docs/observability.md has the full list.

#ifndef PPSC_OBS_METRICS_H
#define PPSC_OBS_METRICS_H

#ifndef PPSC_OBS_ENABLED
#define PPSC_OBS_ENABLED 1
#endif

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ppsc {
namespace obs {

class JsonWriter;

// Power-of-two-bucketed value distribution. Bucket 0 holds the value
// 0; bucket b >= 1 holds values v with 2^(b-1) <= v < 2^b. 64 buckets
// cover the full uint64 range.
struct Histogram {
  static constexpr std::size_t kBuckets = 64;

  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::uint64_t buckets[kBuckets] = {};

  static std::size_t bucket_of(std::uint64_t value);

  void record(std::uint64_t value);
  void merge(const Histogram& other);

  // Quantile estimate from the log buckets: linear interpolation
  // inside the bucket holding rank q*count, with the bucket's upper
  // edge clamped to the observed max (so estimates never exceed a
  // value that actually occurred). Exact for bucket-0 (zero) values;
  // elsewhere accurate to the bucket width. Returns 0 when empty.
  double quantile(double q) const;
};

// A merged, point-in-time view of every sheet in a registry. Keys are
// sorted (std::map), which is what makes to_json deterministic.
struct MetricSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Histogram> histograms;

  // {"counters": {...}, "histograms": {name: {count, sum, max, p50,
  // p90, p99, buckets: [[lower_bound, count], ...]}}} with sorted
  // keys and no whitespace; byte-identical for equal snapshots. The
  // quantiles are the derived estimates of Histogram::quantile, so
  // percentiles need no offline recomputation from the buckets.
  std::string to_json() const;

  // Writes the `histograms` object of to_json (bench/report.h writes
  // the same object into its reports).
  void write_histograms(JsonWriter& json) const;
};

class MetricRegistry {
 public:
  // The process-wide registry every engine publishes to. Never
  // destroyed (intentionally leaked) so publishes from late-exiting
  // threads cannot touch a dead object.
  static MetricRegistry& global();

  bool enabled() const {
#if PPSC_OBS_ENABLED
    return enabled_.load(std::memory_order_relaxed);
#else
    return false;
#endif
  }

  void set_enabled(bool on) {
#if PPSC_OBS_ENABLED
    enabled_.store(on, std::memory_order_relaxed);
#else
    (void)on;
#endif
  }

  // Adds `delta` to the named counter on this thread's sheet. No-op
  // when disabled (or compiled out). `name` must outlive the call only
  // (it is copied into the sheet on first use).
  void add(const char* name, std::uint64_t delta);

  // Records one value into the named histogram on this thread's sheet.
  void record(const char* name, std::uint64_t value);

  // Merges every thread sheet into one snapshot. Safe to call while
  // other threads publish; their in-flight deltas land in a later
  // snapshot.
  MetricSnapshot snapshot() const;

  // Zeroes all sheets (the sheets themselves stay registered, so
  // thread-local pointers held by live threads remain valid).
  void reset();

 private:
  struct Sheet {
    std::mutex mu;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, Histogram> histograms;
  };

  MetricRegistry();

  Sheet& local_sheet();

#if PPSC_OBS_ENABLED
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards sheets_ (the vector, not contents)
  std::vector<std::unique_ptr<Sheet>> sheets_;
#endif
};

// True iff environment variable `name` is "1", "true" or "on".
bool env_truthy(const char* name);

// Writes the global registry snapshot (to_json + newline) to the path
// named by PPSC_OBS_DUMP; returns true iff a file was written, false
// when the variable is unset/empty or the write fails. The registry
// registers this via atexit when it is constructed with PPSC_OBS_DUMP
// set (and enables itself), so *any* binary that touches the registry
// -- a slow golden run, a ctest binary, a one-off tool -- dumps its
// full snapshot at process exit without code changes.
bool write_snapshot_if_requested();

}  // namespace obs
}  // namespace ppsc

#endif  // PPSC_OBS_METRICS_H
