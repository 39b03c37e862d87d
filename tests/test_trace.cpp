// Span tracing (obs/trace.h): the Chrome trace-event export pinned
// byte-for-byte on hand-built events, ScopedSpan nesting semantics,
// ring wrap accounting, thread-count invariance of the sim/parallel
// span stream, and an end-to-end schema check over the engine spans.
//
// Tests run against the process-global TraceRegistry (the object the
// engines record into), so each one starts with reset() and leaves
// the registry disabled. The pinned-JSON test runs first in this
// binary: it relies on the main thread owning ring 0, which holds as
// long as no earlier test appended from another thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/constructions.h"
#include "obs/trace.h"
#include "petri/coverability.h"
#include "petri/karp_miller.h"
#include "petri/petri_net.h"
#include "petri/reachability.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"
#include "verify/stable.h"

namespace {

using ppsc::obs::ScopedSpan;
using ppsc::obs::TraceEvent;
using ppsc::obs::TraceRegistry;

#if PPSC_OBS_ENABLED

TEST(TraceJson, PinnedChromeOutputOnHandBuiltEvents) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  // Fixed timestamps, so the export is fully deterministic: an outer
  // 4us span containing an inner 2.5us one with one numeric arg.
  TraceEvent outer;
  outer.name = "outer";
  outer.category = "test";
  outer.t_start_ns = 1000;
  outer.t_end_ns = 5000;
  outer.depth = 0;
  TraceEvent inner;
  inner.name = "inner";
  inner.category = "test";
  inner.t_start_ns = 2000;
  inner.t_end_ns = 4500;
  inner.depth = 1;
  inner.add_arg("k", 7);
  // Destruction order appends children first; collect() re-sorts.
  registry.append(inner);
  registry.append(outer);

  const std::string json = registry.to_chrome_json();
  registry.reset();
  registry.set_enabled(false);

  // Timestamps rebase to the earliest start (1000ns) and convert to
  // fractional microseconds, the unit the trace-event format fixes.
  EXPECT_EQ(json,
            "{\"traceEvents\":["
            "{\"name\":\"outer\",\"cat\":\"test\",\"ph\":\"X\","
            "\"ts\":0,\"dur\":4,\"pid\":1,\"tid\":0},"
            "{\"name\":\"inner\",\"cat\":\"test\",\"ph\":\"X\","
            "\"ts\":1,\"dur\":2.5,\"pid\":1,\"tid\":0,"
            "\"args\":{\"k\":7}}"
            "],\"displayTimeUnit\":\"ns\"}");
}

TEST(TraceJson, ArgOverflowKeepsFirstThree) {
  TraceEvent event;
  event.add_arg("a", 1);
  event.add_arg("b", 2);
  event.add_arg("c", 3);
  event.add_arg("d", 4);  // dropped: kMaxArgs == 3
  EXPECT_EQ(event.num_args, 3u);
  EXPECT_STREQ(event.args[2].key, "c");
}

TEST(TraceSpan, RecursionRecordsNestingDepths) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  const std::function<void(int)> descend = [&](int levels) {
    ScopedSpan span("recurse", "test");
    span.arg("level", static_cast<std::uint64_t>(levels));
    if (levels > 0) descend(levels - 1);
  };
  descend(2);

  const std::vector<TraceEvent> events = registry.collect();
  registry.reset();
  registry.set_enabled(false);

  ASSERT_EQ(events.size(), 3u);
  // collect() orders parents before children: depth 0, 1, 2 with each
  // child's interval contained in its parent's.
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_EQ(events[d].depth, d);
    EXPECT_STREQ(events[d].name, "recurse");
  }
  for (std::size_t child = 1; child < events.size(); ++child) {
    EXPECT_GE(events[child].t_start_ns, events[child - 1].t_start_ns);
    EXPECT_LE(events[child].t_end_ns, events[child - 1].t_end_ns);
  }
}

TEST(TraceSpan, RuntimeDisabledRecordsNothing) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(false);
  {
    ScopedSpan span("ghost", "test");
    span.arg("k", 1);
  }
  EXPECT_TRUE(registry.collect().empty());
  EXPECT_EQ(registry.dropped(), 0u);
}

TEST(TraceRing, WrapKeepsNewestAndCountsDropped) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  const std::uint64_t total = TraceRegistry::kRingCapacity + 5;
  for (std::uint64_t i = 0; i < total; ++i) {
    TraceEvent event;
    event.name = "wrap";
    event.category = "test";
    event.t_start_ns = i;
    event.t_end_ns = i + 1;
    registry.append(event);
  }
  const std::vector<TraceEvent> events = registry.collect();
  const std::uint64_t dropped = registry.dropped();
  registry.reset();
  registry.set_enabled(false);

  EXPECT_EQ(events.size(), TraceRegistry::kRingCapacity);
  EXPECT_EQ(dropped, 5u);
  // The suffix window: the oldest 5 events were overwritten.
  std::uint64_t min_start = ~0ull;
  for (const TraceEvent& event : events) {
    min_start = std::min(min_start, event.t_start_ns);
  }
  EXPECT_EQ(min_start, 5u);
}

// The multiset of (name, args) pairs, thread ids and timestamps
// erased -- the span stream's deterministic content.
std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
span_content(const std::vector<TraceEvent>& events) {
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> out;
  for (const TraceEvent& event : events) {
    out.emplace_back(event.name,
                     event.num_args > 0 ? event.args[0].value : 0,
                     event.num_args > 1 ? event.args[1].value : 0);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TraceSim, ParallelSweepSpansAreThreadCountInvariant) {
  TraceRegistry& registry = TraceRegistry::global();
  auto c = ppsc::core::unary_counting(4);

  registry.reset();
  registry.set_enabled(true);
  ppsc::sim::measure_convergence_parallel(c, {16}, 8, {}, 1);
  const auto serial = span_content(registry.collect());

  registry.reset();
  ppsc::sim::measure_convergence_parallel(c, {16}, 8, {}, 4);
  const std::vector<TraceEvent> threaded_events = registry.collect();
  const auto threaded = span_content(threaded_events);
  registry.set_enabled(false);
  registry.reset();

  // Per-run seeds are seed + r regardless of the thread layout, so the
  // span stream -- one sim.run per run with its (seed, shards, steps) args,
  // plus the sim.sweep parent -- is identical content-wise; only the
  // thread ids differ.
  EXPECT_EQ(serial, threaded);
  std::size_t runs = 0;
  for (const auto& entry : serial) {
    if (std::get<0>(entry) == "sim.run") ++runs;
  }
  EXPECT_EQ(runs, 8u);
  // The multi-thread sweep executes every run on a pool thread, so its
  // sim.run spans land on worker ring tracks, never the main thread's
  // (which owns the sim.sweep parent). How many distinct workers show
  // up is scheduler-dependent -- on a loaded single-CPU machine one
  // worker can drain the whole queue -- so only the track separation
  // is asserted.
  std::uint32_t sweep_tid = 0;
  for (const TraceEvent& event : threaded_events) {
    if (std::string(event.name) == "sim.sweep") sweep_tid = event.thread_id;
  }
  for (const TraceEvent& event : threaded_events) {
    if (std::string(event.name) != "sim.run") continue;
    EXPECT_NE(event.thread_id, sweep_tid);
  }
}

TEST(TraceEngines, CrossSectionExportsSchemaValidNestedSpans) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  // One small query per engine, the e19 cross-section in miniature.
  auto c = ppsc::core::unary_counting(4);
  const ppsc::petri::PetriNet& net = c.protocol.net();
  const ppsc::petri::Config source(c.protocol.initial_config({3}));
  const ppsc::petri::Config target = ppsc::petri::Config::unit(
      c.protocol.num_states(), c.protocol.states().at("4!"));
  ppsc::petri::explore(net, {source}, {});
  ppsc::petri::backward_basis(net, target, 1u << 22, nullptr);
  ppsc::petri::karp_miller(net, source, 10000);
  ppsc::sim::expected_interactions_to_silence(c.protocol, {3}, 100000);
  ppsc::verify::check_input(c.protocol, c.predicate, {3}, {});

  const std::vector<TraceEvent> events = registry.collect();
  const std::string json = registry.to_chrome_json();

  // Spans from at least 4 engines, with nested phases under them.
  std::vector<std::string> roots;
  bool nested = false;
  for (const TraceEvent& event : events) {
    if (event.depth > 0) nested = true;
    if (event.depth != 0) continue;
    if (std::find(roots.begin(), roots.end(), event.name) == roots.end()) {
      roots.emplace_back(event.name);
    }
  }
  for (const char* engine :
       {"explore", "coverability", "karp_miller", "expected_time",
        "verify"}) {
    EXPECT_NE(std::find(roots.begin(), roots.end(), engine), roots.end())
        << "no top-level span from engine " << engine;
  }
  EXPECT_TRUE(nested);

  // Chrome trace-event schema, string-level: the envelope plus every
  // per-event required key (scripts/bench_report.sh re-validates the
  // same shape with a real JSON parser on every bench run).
  EXPECT_EQ(json.find("{\"traceEvents\":[{"), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\"}"), std::string::npos);
  for (const char* key :
       {"\"name\":", "\"cat\":", "\"ph\":\"X\"", "\"ts\":", "\"dur\":",
        "\"pid\":1", "\"tid\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // PPSC_TRACE_JSON end-to-end: the env-gated writer emits the same
  // document (plus trailing newline) to the named path.
  const std::string path = testing::TempDir() + "/ppsc_trace_sample.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("PPSC_TRACE_JSON", path.c_str(), 1), 0);
  EXPECT_TRUE(ppsc::obs::write_trace_if_requested());
  ASSERT_EQ(unsetenv("PPSC_TRACE_JSON"), 0);
  registry.reset();
  registry.set_enabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace not written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json + "\n");
  std::remove(path.c_str());
}

#else  // !PPSC_OBS_ENABLED

TEST(TraceOff, CompiledOutSpansRecordNothing) {
  // -DPPSC_OBS=OFF compiles ScopedSpan to an empty body and pins the
  // registry disabled: even force-enabling records zero events.
  TraceRegistry& registry = TraceRegistry::global();
  registry.set_enabled(true);
  {
    ScopedSpan span("ghost", "test");
    span.arg("k", 1);
  }
  TraceEvent event;
  event.name = "ghost";
  registry.append(event);
  EXPECT_FALSE(registry.enabled());
  EXPECT_TRUE(registry.collect().empty());
  EXPECT_EQ(registry.dropped(), 0u);
}

#endif  // PPSC_OBS_ENABLED

TEST(TraceEnv, TraceJsonEnvParsesEmptyAsUnset) {
  ASSERT_EQ(setenv("PPSC_TRACE_JSON", "", 1), 0);
  EXPECT_EQ(ppsc::obs::trace_json_env(), nullptr);
  ASSERT_EQ(unsetenv("PPSC_TRACE_JSON"), 0);
  EXPECT_EQ(ppsc::obs::trace_json_env(), nullptr);
  EXPECT_FALSE(ppsc::obs::write_trace_if_requested());
}

}  // namespace
