// Span tracing: where did the time go *inside* one operation.
//
// The metrics layer (obs/metrics.h) answers "how much work happened";
// this layer answers "in what order, on which thread, and which phase
// dominated" by recording closed spans -- {name, category, start, end,
// thread, nesting depth, up to two numeric args} -- into per-thread
// ring buffers and exporting them as Chrome trace-event JSON that
// loads directly in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing.
//
// Design constraints, mirroring the metrics layer:
//
//  * The hot path is a thread-owned ring write: no locks, no
//    allocation after the ring exists, no cross-thread traffic. Each
//    thread appends only to its own ring (single producer). Slots are
//    seqlock-protected (an atomic sequence word brackets the atomic
//    payload words), so a collector may run concurrently with writers:
//    it skips slots that are mid-write or already overwritten instead
//    of reading torn events, and the whole exchange is data-race-free
//    under the C++ memory model (TSan-clean by construction, pinned by
//    tests/test_concurrency.cpp). Exports are *complete* only when
//    writers are quiescent -- the bench drivers export after every
//    worker has joined.
//  * Rings are bounded (kRingCapacity events per thread); when a ring
//    wraps, the oldest events are overwritten and dropped() reports
//    how many were lost, so tracing a pathological run degrades to a
//    suffix window instead of unbounded memory.
//  * Tracing is opt-in at runtime: the registry starts enabled only
//    when PPSC_OBS_TRACE is "1"/"true"/"on" (or PPSC_TRACE_JSON names
//    an output path -- asking for a trace file implies tracing), and a
//    disabled ScopedSpan is one relaxed atomic load and a branch, with
//    the clock never read.
//  * Compiling with -DPPSC_OBS=OFF turns every ScopedSpan into an
//    empty inline body: zero code in the engines, same contract as the
//    metric publish paths.
//
// Span naming convention: `engine` for the whole operation and
// `engine.phase` for phases inside it (`explore.frontier`,
// `verify.consensus`, `expected_time.solve`); the category is the
// subsystem (`petri`, `sim`, `verify`). Names and categories must be
// string literals (or otherwise outlive the registry): events store
// the pointers, never copies. docs/observability.md lists every span.

#ifndef PPSC_OBS_TRACE_H
#define PPSC_OBS_TRACE_H

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

struct TraceArg {
  const char* key = "";
  std::uint64_t value = 0;
};

// One closed span. POD-sized so ring slots are assignment-cheap.
struct TraceEvent {
  static constexpr std::size_t kMaxArgs = 3;

  const char* name = "";
  const char* category = "";
  std::uint64_t t_start_ns = 0;
  std::uint64_t t_end_ns = 0;
  // Small sequential id assigned per thread ring in registration
  // order; stamped by TraceRegistry::append.
  std::uint32_t thread_id = 0;
  // Nesting depth at emission (0 = top level on this thread).
  std::uint32_t depth = 0;
  std::uint32_t num_args = 0;
  TraceArg args[kMaxArgs];

  // Convenience for hand-built events in tests; keeps the first
  // kMaxArgs pairs.
  void add_arg(const char* key, std::uint64_t value);
};

class TraceRegistry {
 public:
  // Events kept per thread; a wrapped ring keeps the newest events.
  static constexpr std::size_t kRingCapacity = 1u << 16;

  // The process-wide trace sink. Never destroyed (intentionally
  // leaked), same rationale as MetricRegistry::global.
  static TraceRegistry& global();

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

  // Appends one closed event to the calling thread's ring, stamping
  // event.thread_id with the ring's id. No-op when disabled (or
  // compiled out). ScopedSpan is the normal producer; tests append
  // hand-built events directly.
  void append(TraceEvent event);

  // Every retained event, sorted by (thread_id, t_start_ns, depth) so
  // parents precede their children and per-thread tracks are
  // contiguous. Safe to call while writers append (slots mid-write or
  // overwritten during the scan are skipped, never torn); complete
  // iff writer threads are quiescent.
  std::vector<TraceEvent> collect() const;

  // Events lost to ring wrap-around since the last reset.
  std::uint64_t dropped() const;

  // Forgets all retained events (rings stay registered; live threads
  // keep their cached ring).
  void reset();

  // Chrome trace-event JSON: {"traceEvents":[{"name","cat","ph":"X",
  // "ts","dur","pid":1,"tid","args":{...}}, ...],
  // "displayTimeUnit":"ns"}. Timestamps are rebased to the earliest
  // retained start and written in microseconds (fractional), the
  // unit the format fixes. Deterministic given the same events.
  std::string to_chrome_json() const;

  // Writes to_chrome_json() (plus trailing newline) to `path`;
  // returns false and prints to stderr on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct Ring;

  TraceRegistry();

  Ring& local_ring();

#if PPSC_OBS_ENABLED
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards rings_ (the vector, not ring slots)
  std::vector<std::unique_ptr<Ring>> rings_;
#endif
};

// RAII span: records [construction, destruction) on the calling
// thread when the trace registry is enabled at construction. Nesting
// is tracked with a thread-local depth counter, so sibling and child
// spans reconstruct the call tree from (depth, interval containment).
#if PPSC_OBS_ENABLED

class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  // Attaches a numeric argument (shown under "args" in Perfetto).
  // Keeps the first TraceEvent::kMaxArgs; later calls are dropped.
  void arg(const char* key, std::uint64_t value) {
    if (armed_) event_.add_arg(key, value);
  }

 private:
  TraceEvent event_;
  bool armed_ = false;
};

#else  // !PPSC_OBS_ENABLED

class ScopedSpan {
 public:
  // User-provided (non-trivial) empty bodies so `ScopedSpan span(...)`
  // neither warns as unused nor emits code.
  ScopedSpan(const char*, const char*) {}
  ~ScopedSpan() {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void arg(const char*, std::uint64_t) {}
};

#endif  // PPSC_OBS_ENABLED

// Per-name totals over a set of spans.
struct SpanProfile {
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t self_ns = 0;
};

// Aggregates `events` (in collect() order) by span name. A span's
// direct children are the spans on the same thread one level deeper
// and inside its interval; self ns is its inclusive ns minus its
// children's inclusive ns. Spans on other threads are nobody's
// children, so a parent that waits for workers keeps the wait as self
// time.
std::map<std::string, SpanProfile> profile(
    const std::vector<TraceEvent>& events);

// The PPSC_TRACE_JSON path, or nullptr when unset/empty.
const char* trace_json_env();

// Writes the global trace to $PPSC_TRACE_JSON if set; returns true
// iff a file was written. Benches call this once, after all worker
// threads have joined (bench/report.h does it from the Report
// destructor; the google-benchmark mains call it explicitly).
bool write_trace_if_requested();

}  // namespace obs
}  // namespace ppsc

#endif  // PPSC_OBS_TRACE_H
