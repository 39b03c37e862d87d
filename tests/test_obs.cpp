// Observability subsystem: counter/histogram semantics, the
// hand-rolled JSON writer, merge determinism of the registry, the
// engine stat structs, and the bench/report.h schema.
//
// Registry tests run against the process-global MetricRegistry (that
// is the object the engines publish to), so each one starts with
// reset() and leaves the registry disabled.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/constructions.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/coverability.h"
#include "petri/petri_net.h"
#include "petri/reachability.h"
#include "report.h"
#include "sim/census.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace {

using ppsc::obs::Histogram;
using ppsc::obs::JsonWriter;
using ppsc::obs::MetricRegistry;
using ppsc::obs::MetricSnapshot;

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of((1ull << 32) - 1), 32u);
  EXPECT_EQ(Histogram::bucket_of(1ull << 32), 33u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 63u);
}

TEST(ObsHistogram, RecordAccumulates) {
  Histogram h;
  h.record(0);
  h.record(5);
  h.record(5);
  h.record(100);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 110u);
  EXPECT_EQ(h.max, 100u);
  EXPECT_EQ(h.buckets[0], 1u);               // the 0
  EXPECT_EQ(h.buckets[3], 2u);               // 5 twice: [4, 8)
  EXPECT_EQ(h.buckets[7], 1u);               // 100: [64, 128)
}

TEST(ObsHistogram, MergeIsBucketwiseSum) {
  Histogram a, b;
  a.record(3);
  a.record(64);
  b.record(3);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_EQ(a.sum, 3u + 64u + 3u + 1000u);
  EXPECT_EQ(a.max, 1000u);
  EXPECT_EQ(a.buckets[2], 2u);  // both 3s
}

TEST(ObsHistogram, QuantileEdgeCases) {
  Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0.0);

  Histogram zeros;
  zeros.record(0);
  zeros.record(0);
  EXPECT_EQ(zeros.quantile(0.5), 0.0);
  EXPECT_EQ(zeros.quantile(0.99), 0.0);

  // A power of two is its bucket's lower edge, and the upper edge
  // clamps to max == lower: every quantile is the exact value.
  Histogram exact;
  exact.record(4);
  EXPECT_EQ(exact.quantile(0.5), 4.0);
  EXPECT_EQ(exact.quantile(0.99), 4.0);
}

TEST(ObsHistogram, QuantileInterpolatesWithinBucket) {
  // One value 5 in bucket [4, 8), upper edge clamped to max = 5:
  // quantile(q) = 4 + q * (5 - 4).
  Histogram h;
  h.record(5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 4.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.0);

  // Four 1s and one 100: p50's rank 2.5 falls in bucket [1, 2) at
  // fraction 2.5/4; p99's rank 4.95 falls in [64, 128) clamped to
  // [64, 100] at fraction 0.95.
  Histogram skewed;
  for (int i = 0; i < 4; ++i) skewed.record(1);
  skewed.record(100);
  EXPECT_DOUBLE_EQ(skewed.quantile(0.5), 1.0 + 2.5 / 4.0);
  EXPECT_DOUBLE_EQ(skewed.quantile(0.99), 64.0 + 36.0 * 0.95);
}

TEST(ObsHistogram, QuantileNeverExceedsRecordedMax) {
  Histogram h;
  h.record(3);
  h.record(9);
  h.record(1000);
  double previous = 0.0;
  for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double estimate = h.quantile(q);
    EXPECT_LE(estimate, static_cast<double>(h.max));
    EXPECT_GE(estimate, previous);  // monotone in q
    previous = estimate;
  }
}

// ---------------------------------------------------------------------------
// JSON escaping and writer
// ---------------------------------------------------------------------------

TEST(ObsJson, EscapeControlAndSpecials) {
  EXPECT_EQ(ppsc::obs::json_escape("plain"), "plain");
  EXPECT_EQ(ppsc::obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(ppsc::obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(ppsc::obs::json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(ppsc::obs::json_escape(std::string("\x01\x1f", 2)),
            "\\u0001\\u001f");
  // Multi-byte UTF-8 passes through untouched.
  EXPECT_EQ(ppsc::obs::json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(ObsJson, UnescapeRoundTrip) {
  std::string raw;
  for (int c = 0; c < 256; ++c) raw += static_cast<char>(c);
  auto back = ppsc::obs::json_unescape(ppsc::obs::json_escape(raw));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, raw);
}

TEST(ObsJson, UnescapeRejectsMalformed) {
  EXPECT_FALSE(ppsc::obs::json_unescape("trailing\\").has_value());
  EXPECT_FALSE(ppsc::obs::json_unescape("\\x41").has_value());
  EXPECT_FALSE(ppsc::obs::json_unescape("\\u00").has_value());
  EXPECT_FALSE(ppsc::obs::json_unescape("\\u00zz").has_value());
  // The escaper never emits multi-byte code points; the decoder
  // rejects them rather than guessing an encoding.
  EXPECT_FALSE(ppsc::obs::json_unescape("\\u0100").has_value());
}

TEST(ObsJson, WriterPinnedOutput) {
  JsonWriter json;
  json.begin_object();
  json.key("name").value("x\ny");
  json.key("n").value(std::uint64_t{42});
  json.key("neg").value(std::int64_t{-7});
  json.key("half").value(0.5);
  // Finite doubles all the way out to DBL_MAX keep their value.
  json.key("huge")
      .begin_array()
      .value(1.75e308)
      .value(-std::numeric_limits<double>::max())
      .end_array();
  json.key("flag").value(true);
  json.key("list").begin_array().value(1).value(2).end_array();
  json.key("empty").begin_object().end_object();
  json.end_object();
  EXPECT_TRUE(json.done());
  EXPECT_EQ(json.str(),
            "{\"name\":\"x\\ny\",\"n\":42,\"neg\":-7,\"half\":0.5,"
            "\"huge\":[1.75e+308,-1.7976931348623157e+308],"
            "\"flag\":true,\"list\":[1,2],\"empty\":{}}");
}

TEST(ObsJson, WriterNonFiniteDoublesSerializeAsZero) {
  JsonWriter json;
  json.begin_array();
  json.value(0.0 / 0.0);
  json.value(1.0 / 0.0);
  json.value(-1.0 / 0.0);
  json.end_array();
  EXPECT_EQ(json.str(), "[0,0,0]");
}

TEST(ObsJson, WriterDoneTracksTopLevel) {
  JsonWriter json;
  json.begin_object();
  EXPECT_FALSE(json.done());
  json.key("a").begin_array();
  EXPECT_FALSE(json.done());
  json.end_array();
  json.end_object();
  EXPECT_TRUE(json.done());
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

#if PPSC_OBS_ENABLED

TEST(ObsRegistry, DisabledPublishesNothing) {
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(false);
  registry.add("test.counter", 3);
  registry.record("test.histogram", 9);
  const MetricSnapshot snapshot = registry.snapshot();
  EXPECT_TRUE(snapshot.counters.empty());
  EXPECT_TRUE(snapshot.histograms.empty());
}

TEST(ObsRegistry, CountersAndHistograms) {
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  registry.add("test.counter", 3);
  registry.add("test.counter", 4);
  registry.record("test.histogram", 9);
  const MetricSnapshot snapshot = registry.snapshot();
  registry.set_enabled(false);
  EXPECT_EQ(snapshot.counters.at("test.counter"), 7u);
  EXPECT_EQ(snapshot.histograms.at("test.histogram").count, 1u);
}

TEST(ObsRegistry, ResetClearsButKeepsSheetsUsable) {
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  registry.add("test.counter", 1);
  registry.reset();
  EXPECT_TRUE(registry.snapshot().counters.empty());
  registry.add("test.counter", 5);  // same thread, same (cleared) sheet
  const MetricSnapshot snapshot = registry.snapshot();
  registry.set_enabled(false);
  EXPECT_EQ(snapshot.counters.at("test.counter"), 5u);
}

TEST(ObsRegistry, ThreadedMergeIsDeterministic) {
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  const auto publish = [&registry](std::uint64_t base) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      registry.add("test.threads", base + i);
      registry.record("test.thread_hist", base + i);
    }
  };
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < 4; ++w) {
    workers.emplace_back(publish, w * 1000);
  }
  for (auto& worker : workers) worker.join();
  const std::string threaded = registry.snapshot().to_json();

  registry.reset();
  for (std::uint64_t w = 0; w < 4; ++w) publish(w * 1000);
  const std::string serial = registry.snapshot().to_json();
  registry.set_enabled(false);
  // Same publishes, any thread layout -> byte-identical serialization.
  EXPECT_EQ(threaded, serial);
}

TEST(ObsRegistry, SnapshotJsonShape) {
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  registry.add("b.counter", 2);
  registry.add("a.counter", 1);
  registry.record("h", 4);
  const std::string json = registry.snapshot().to_json();
  registry.set_enabled(false);
  // Value 4 sits on its bucket's lower edge with the upper edge
  // clamped to max, so the p50/p90/p99 estimates are exactly 4 and the
  // pinned string stays free of long %.17g fractions.
  EXPECT_EQ(json,
            "{\"counters\":{\"a.counter\":1,\"b.counter\":2},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":4,\"max\":4,"
            "\"p50\":4,\"p90\":4,\"p99\":4,\"buckets\":[[4,1]]}}}");
}

// ---------------------------------------------------------------------------
// Engine metrics end to end
// ---------------------------------------------------------------------------

TEST(ObsEngines, ParallelSweepSnapshotIsThreadCountInvariant) {
  MetricRegistry& registry = MetricRegistry::global();
  auto c = ppsc::core::unary_counting(4);

  registry.reset();
  registry.set_enabled(true);
  const auto serial =
      ppsc::sim::measure_convergence_parallel(c, {16}, 8, {}, 1);
  const std::string snap1 = registry.snapshot().to_json();

  registry.reset();
  const auto parallel =
      ppsc::sim::measure_convergence_parallel(c, {16}, 8, {}, 4);
  const std::string snap4 = registry.snapshot().to_json();
  registry.set_enabled(false);

  // The sweep itself is bit-identical 1-vs-N (per-run seeds), and so
  // is the metric snapshot: per-thread sheets merge by order-
  // independent sums.
  EXPECT_EQ(serial.mean_steps, parallel.mean_steps);
  EXPECT_EQ(snap1, snap4);
  EXPECT_FALSE(snap1.find("sim.agent.runs") == std::string::npos);
}

TEST(ObsEngines, AutoRunHandsTheSlowTailToTheCensusSampler) {
  // The performance cliff, pinned by counters instead of a clock:
  // near silence almost every kernel draw of unary_counting(8) at
  // 60,000 agents is null: on the kernel alone one run (seed 1000)
  // took 4.07e9 draws for 110,133 productive steps, 32 s on a 4-vCPU
  // host. kAuto must hand the run to the census sampler instead. The
  // kernel part took 285,000-292,500 draws over seeds 0..199 (whole
  // epochs of K = 7,500), so 10^6 leaves room for table or epoch
  // changes while still failing on the cliff by three orders of
  // magnitude.
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  ppsc::sim::RunOptions options;
  options.seed = 2026;
  const auto stats = ppsc::sim::measure_convergence(
      ppsc::core::unary_counting(8), {60000}, 1, options);
  const MetricSnapshot snapshot = registry.snapshot();
  registry.set_enabled(false);

  EXPECT_EQ(stats.converged, 1u);
  EXPECT_EQ(stats.correct, 1u);
  EXPECT_EQ(snapshot.counters.at("sim.dispatch.handoff"), 1u);
  EXPECT_EQ(snapshot.counters.count("sim.dispatch.kernel"), 0u);
  EXPECT_LT(snapshot.counters.at("sim.agent.draws"), 1000000u);
  // Both parts did productive work, and together they are the run.
  const std::uint64_t kernel = snapshot.counters.at("sim.agent.productive");
  const std::uint64_t census = snapshot.counters.at("sim.census.productive");
  EXPECT_GT(kernel, 0u);
  EXPECT_GT(census, 0u);
  EXPECT_EQ(static_cast<double>(kernel + census), stats.mean_steps);
}

TEST(ObsEngines, AutoUnderTheFloorIsAKernelStoppedAtConstructionThenCensus) {
  // Example 4.2 with 8 leaders at x = 60,000: the initial census has
  // far fewer enabled pairs than the handoff floor, so a kAuto run
  // hands off at the kernel's construction barrier. Pinned against
  // that path spelled out: a forced one-shard kernel stopped at the
  // floor (at construction, nothing drawn), published, then the census
  // sampler on the stream the kernel hands over. The sweep's
  // statistics and its whole metric snapshot (every sim.census.* count
  // of the chain, sim.agent.runs, sim.dispatch.handoff) must equal the
  // reference's.
  const auto cp = ppsc::core::example_4_2(8);
  const ppsc::core::Config initial = cp.protocol.initial_config({60000});
  const auto table = ppsc::sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const ppsc::sim::SchedulerPlan plan = ppsc::sim::planned_scheduler(
      {}, true, cp.protocol.num_states(),
      ppsc::core::Protocol::population(initial));
  ASSERT_EQ(plan.shards, 1u);
  const long long pairs = table->enabled_pairs(initial);
  ASSERT_GT(pairs, 0);
  ASSERT_LT(pairs, plan.handoff_pairs);

  constexpr std::size_t kRuns = 20;
  ppsc::sim::RunOptions options;
  options.seed = 77;
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  double total_steps = 0.0;
  std::size_t silent = 0;
  for (std::size_t r = 0; r < kRuns; ++r) {
    ppsc::sim::ShardedOptions forced;
    forced.shards = 1;
    ppsc::sim::ShardedSimulator kernel(*table, initial, options.seed + r,
                                       forced);
    kernel.run(options.max_steps, plan.handoff_pairs);
    ASSERT_EQ(kernel.steps(), 0u);
    ASSERT_EQ(kernel.interactions(), 0u);
    kernel.publish_metrics();
    ppsc::sim::CensusSimulator census(
        cp.protocol.net(), kernel.census(),
        ppsc::util::Xoshiro256::stream(options.seed + r, 1));
    census.run(options.max_steps);
    census.publish_metrics();
    registry.add("sim.dispatch.handoff", 1);
    total_steps += static_cast<double>(census.steps());
    if (census.silent()) ++silent;
  }
  const std::string reference = registry.snapshot().to_json();

  registry.reset();
  const auto stats =
      ppsc::sim::measure_convergence_parallel(cp, {60000}, kRuns, options, 4);
  const MetricSnapshot snapshot = registry.snapshot();
  registry.set_enabled(false);

  EXPECT_EQ(snapshot.to_json(), reference);
  EXPECT_EQ(snapshot.counters.at("sim.dispatch.handoff"), kRuns);
  EXPECT_EQ(snapshot.counters.at("sim.agent.runs"), kRuns);
  EXPECT_EQ(snapshot.counters.at("sim.agent.draws"), 0u);
  EXPECT_EQ(stats.converged, silent);
  EXPECT_EQ(stats.mean_steps, total_steps / static_cast<double>(kRuns));

  // A zero budget ends on the kernel, as before: it stops at the
  // budget before the floor is looked at.
  options.max_steps = 0;
  registry.reset();
  registry.set_enabled(true);
  ppsc::sim::measure_convergence_parallel(cp, {60000}, 2, options, 1);
  const MetricSnapshot zero = registry.snapshot();
  registry.set_enabled(false);
  EXPECT_EQ(zero.counters.at("sim.dispatch.kernel"), 2u);
  EXPECT_EQ(zero.counters.count("sim.dispatch.handoff"), 0u);
}

TEST(ObsEngines, DispatchCountersNameThePathOfEveryRun) {
  // One sim.dispatch.* count per run, for the path the run took.
  using ppsc::sim::SchedulerChoice;
  MetricRegistry& registry = MetricRegistry::global();
  const auto paths = [&](const ppsc::core::ConstructedProtocol& cp,
                         SchedulerChoice scheduler) {
    registry.reset();
    registry.set_enabled(true);
    ppsc::sim::RunOptions options;
    options.scheduler = scheduler;
    ppsc::sim::measure_convergence(cp, {40}, 3, options);
    std::map<std::string, std::uint64_t> counts;
    for (const auto& [name, value] : registry.snapshot().counters) {
      if (name.rfind("sim.dispatch.", 0) == 0) counts[name] = value;
    }
    registry.set_enabled(false);
    return counts;
  };
  using Counts = std::map<std::string, std::uint64_t>;
  const auto unary = ppsc::core::unary_counting(3);
  EXPECT_EQ(paths(unary, SchedulerChoice::kSharded),
            (Counts{{"sim.dispatch.kernel", 3}}));
  EXPECT_EQ(paths(unary, SchedulerChoice::kCensus),
            (Counts{{"sim.dispatch.census", 3}}));
  // kAuto on a table-free protocol runs the census sampler, counted as
  // the count path.
  EXPECT_EQ(paths(ppsc::core::destructive_unary_counting(3),
                  SchedulerChoice::kAuto),
            (Counts{{"sim.dispatch.count", 3}}));
  // kAuto at 40 agents: every run ends on the kernel or hands off.
  Counts automatic = paths(unary, SchedulerChoice::kAuto);
  EXPECT_EQ(automatic["sim.dispatch.kernel"] +
                automatic["sim.dispatch.handoff"],
            3u);
}

TEST(ObsEngines, ExploreCollisionsDoNotDependOnTheRegistry) {
  // Collisions are intern-table probes, counted on every run: the
  // same graph reports the same count with the registry off and on,
  // and the registry receives exactly that count.
  using ppsc::petri::Config;
  MetricRegistry& registry = MetricRegistry::global();
  ppsc::petri::PetriNet net(6);  // 14 tokens on a 6-chain: 11628 configs
  for (std::size_t p = 0; p + 1 < 6; ++p) {
    net.add(Config::unit(6, p), Config::unit(6, p + 1));
  }
  const std::vector<Config> roots = {Config::unit(6, 0, 14)};
  registry.reset();
  registry.set_enabled(false);
  const auto off = ppsc::petri::explore(net, roots);
  registry.set_enabled(true);
  const auto on = ppsc::petri::explore(net, roots);
  const MetricSnapshot snapshot = registry.snapshot();
  registry.set_enabled(false);
  EXPECT_GT(off.stats.collisions, 0u);
  EXPECT_EQ(off.stats.collisions, on.stats.collisions);
  EXPECT_EQ(snapshot.counters.at("explore.collisions"), on.stats.collisions);
}

TEST(ObsTrace, TracedSweepsReuseThePoolThreadsRings) {
  // Every thread that opens a span while tracing is on gets a ring of
  // TraceRegistry::kRingCapacity slots (about 6.8 MB), which the
  // registry keeps for the life of the process. Sweeps run on the
  // persistent pool (util/parallel.h), so 20 traced 4-thread sweeps
  // register rings for the pool's workers and the caller at most. With
  // a thread spawned per worker per sweep, the ring ids (and peak RSS,
  // about 26 MB a sweep) grew with every sweep.
  ppsc::obs::TraceRegistry& traces = ppsc::obs::TraceRegistry::global();
  traces.reset();
  traces.set_enabled(true);
  const auto cp = ppsc::core::unary_counting(3);
  for (int sweep = 0; sweep < 20; ++sweep) {
    ppsc::sim::RunOptions options;
    options.seed = 100 * static_cast<std::uint64_t>(sweep);
    ppsc::sim::measure_convergence_parallel(cp, {50}, 8, options, 4);
  }
  const std::vector<ppsc::obs::TraceEvent> events = traces.collect();
  traces.reset();
  traces.set_enabled(false);
  ASSERT_FALSE(events.empty());
  std::uint32_t largest = 0;
  for (const ppsc::obs::TraceEvent& event : events) {
    largest = std::max(largest, event.thread_id);
  }
  EXPECT_LT(largest, std::thread::hardware_concurrency() + 1);
}

#endif  // PPSC_OBS_ENABLED

TEST(ObsEngines, ExploreStatsOnHandComputedNet) {
  // Chain s0 -> s1 -> s2 from {2,0,0}: the 6 weak compositions of 2
  // tokens over a 3-chain, with 6 firings between them.
  ppsc::petri::PetriNet net(3);
  net.add(ppsc::petri::Config{1, 0, 0}, ppsc::petri::Config{0, 1, 0});
  net.add(ppsc::petri::Config{0, 1, 0}, ppsc::petri::Config{0, 0, 1});
  const auto graph =
      ppsc::petri::explore(net, {ppsc::petri::Config{2, 0, 0}}, {});
  EXPECT_EQ(graph.stats.configs, 6u);
  EXPECT_EQ(graph.stats.configs, graph.size());
  EXPECT_EQ(graph.stats.edges, 6u);
  EXPECT_FALSE(graph.stats.truncated);
  EXPECT_GE(graph.stats.frontier_peak, 1u);
  // One probe per root + one per fired transition.
  EXPECT_EQ(graph.stats.probes, 7u);
}

TEST(ObsEngines, ExploreStatsReportTruncation) {
  ppsc::petri::PetriNet net(1);
  net.add(ppsc::petri::Config{1}, ppsc::petri::Config{2});  // pump
  ppsc::petri::ExploreLimits limits;
  limits.max_nodes = 5;
  const auto graph =
      ppsc::petri::explore(net, {ppsc::petri::Config{1}}, limits);
  EXPECT_TRUE(graph.stats.truncated);
  EXPECT_EQ(graph.stats.configs, 5u);
}

TEST(ObsEngines, BackwardBasisStats) {
  // Chain s0 -> s1 -> s2, cover s2: basis iterates {s2} -> {s1} -> {s0}.
  // Each pop steps only the transition that produces on its support
  // (4 of 6 steps skipped), and the one-place signatures of the two
  // predecessors rule out every basis pair without a covers() call.
  ppsc::petri::PetriNet net(3);
  net.add(ppsc::petri::Config{1, 0, 0}, ppsc::petri::Config{0, 1, 0});
  net.add(ppsc::petri::Config{0, 1, 0}, ppsc::petri::Config{0, 0, 1});
  ppsc::petri::BackwardBasisStats stats;
  const auto basis = ppsc::petri::backward_basis(
      net, ppsc::petri::Config{0, 0, 1}, 1u << 22, &stats);
  EXPECT_EQ(basis, (std::vector<ppsc::petri::Config>{
                       {0, 0, 1}, {0, 1, 0}, {1, 0, 0}}));
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_EQ(stats.predecessors, 2u);
  EXPECT_EQ(stats.skipped, 4u);
  EXPECT_EQ(stats.comparisons, 0u);
  EXPECT_EQ(stats.basis_final, 3u);
  EXPECT_EQ(stats.basis_peak, 3u);
}

TEST(ObsEngines, BackwardBasisStatsCountOverlappingComparisons) {
  // a -> b and 2a -> 2b, cover 2b: the basis is {0,2}, {1,1}, {2,0}.
  // Popping {1,1}, both predecessors ({2,0}, {3,0}) share a signature
  // with {2,0} and are pruned by a covers() call; popping {2,0}, neither
  // transition produces on its support.
  ppsc::petri::PetriNet net(2);
  net.add(ppsc::petri::Config{1, 0}, ppsc::petri::Config{0, 1});
  net.add(ppsc::petri::Config{2, 0}, ppsc::petri::Config{0, 2});
  ppsc::petri::BackwardBasisStats stats;
  const auto basis = ppsc::petri::backward_basis(
      net, ppsc::petri::Config{0, 2}, 1u << 22, &stats);
  EXPECT_EQ(basis,
            (std::vector<ppsc::petri::Config>{{0, 2}, {1, 1}, {2, 0}}));
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_EQ(stats.predecessors, 4u);
  EXPECT_EQ(stats.skipped, 2u);
  EXPECT_EQ(stats.pruned_dominated, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_GT(stats.comparisons, 0u);
  EXPECT_EQ(stats.comparisons, 4u);
  EXPECT_EQ(stats.basis_final, 3u);
}

TEST(ObsEngines, CoveringWordCarriesExploreStats) {
  ppsc::petri::PetriNet net(2);
  net.add(ppsc::petri::Config{1, 0}, ppsc::petri::Config{0, 1});
  const auto result = ppsc::petri::shortest_covering_word(
      net, ppsc::petri::Config{2, 0}, ppsc::petri::Config{0, 2}, 1000);
  ASSERT_TRUE(result.word.has_value());
  // {2,0}, {1,1}, {0,2}: the search stops on the third configuration.
  EXPECT_EQ(result.stats.configs, 3u);
  EXPECT_FALSE(result.stats.truncated);
  EXPECT_GT(result.stats.probes, 0u);
}

// ---------------------------------------------------------------------------
// bench/report.h schema
// ---------------------------------------------------------------------------

TEST(ObsReport, SchemaIsPinned) {
  const std::string path =
      testing::TempDir() + "/ppsc_obs_report_schema.json";
  std::remove(path.c_str());
  ASSERT_EQ(setenv("PPSC_BENCH_JSON", path.c_str(), 1), 0);
  ppsc::obs::TraceRegistry& traces = ppsc::obs::TraceRegistry::global();
  {
    MetricRegistry& registry = MetricRegistry::global();
    registry.reset();
    traces.reset();
    ppsc::bench::Report report("schema_probe");
    registry.add("probe.counter", 3);
    registry.record("probe.hist", 4);
    { ppsc::obs::ScopedSpan span("probe.span", "test"); }
    { ppsc::obs::ScopedSpan span("probe.span", "test"); }
    report.add_items(10.0);
  }
  ASSERT_EQ(unsetenv("PPSC_BENCH_JSON"), 0);
  MetricRegistry::global().set_enabled(false);
  traces.set_enabled(false);
  traces.reset();

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "report not written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  // Key order and nesting are part of the schema contract
  // scripts/bench_report.sh and downstream tooling rely on.
  EXPECT_EQ(json.find("{\"bench\":\"schema_probe\",\"git_rev\":\""), 0u);
  const std::size_t rev_pos = json.find("\"git_rev\":");
  const std::size_t threads_pos = json.find("\"threads\":");
  const std::size_t obs_pos = json.find("\"obs_compiled\":");
  const std::size_t wall_pos = json.find("\"wall_ms\":");
  const std::size_t items_pos = json.find("\"items_per_sec\":");
  const std::size_t counters_pos = json.find("\"counters\":{");
  const std::size_t histograms_pos = json.find("\"histograms\":{");
  const std::size_t profile_pos = json.find("\"profile\":{");
  const std::size_t dropped_pos = json.find("\"trace_dropped\":0}");
  ASSERT_NE(rev_pos, std::string::npos);
  ASSERT_NE(threads_pos, std::string::npos);
  ASSERT_NE(obs_pos, std::string::npos);
  ASSERT_NE(wall_pos, std::string::npos);
  ASSERT_NE(items_pos, std::string::npos);
  ASSERT_NE(counters_pos, std::string::npos);
  ASSERT_NE(histograms_pos, std::string::npos);
  ASSERT_NE(profile_pos, std::string::npos);
  ASSERT_NE(dropped_pos, std::string::npos);
  EXPECT_LT(rev_pos, threads_pos);
  EXPECT_LT(threads_pos, obs_pos);
  EXPECT_LT(obs_pos, wall_pos);
  EXPECT_LT(wall_pos, items_pos);
  EXPECT_LT(items_pos, counters_pos);
  EXPECT_LT(counters_pos, histograms_pos);
  EXPECT_LT(histograms_pos, profile_pos);
  EXPECT_LT(profile_pos, dropped_pos);
  EXPECT_EQ(json.back(), '\n');
  // The metadata after `bench` is wall-clock-free by design; a date
  // stamp would make every baseline regeneration a spurious diff.
  EXPECT_EQ(json.find("\"date\""), std::string::npos);

#if PPSC_OBS_ENABLED
  EXPECT_NE(json.find("\"obs_compiled\":true"), std::string::npos);
  // The registry was enabled by the Report constructor, so the probe
  // metrics (and the flattened histogram triple) are in `counters`.
  EXPECT_NE(json.find("\"probe.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"probe.hist.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"probe.hist.sum\":4"), std::string::npos);
  EXPECT_NE(json.find("\"probe.hist.max\":4"), std::string::npos);
  EXPECT_NE(json.find("\"probe.hist\":{\"count\":1,\"sum\":4,\"max\":4,"
                      "\"p50\":4,\"p90\":4,\"p99\":4,\"buckets\":[[4,1]]}"),
            std::string::npos);
  // The Report armed the trace registry too: both spans are profiled.
  EXPECT_NE(json.find("\"profile\":{\"probe.span\":{\"count\":2,"
                      "\"inclusive_ns\":"),
            std::string::npos);
#else
  EXPECT_NE(json.find("\"profile\":{},"), std::string::npos);
#endif
  std::remove(path.c_str());
}

#if PPSC_OBS_ENABLED

TEST(ObsReport, DumpSnapshotWhenEnvRequests) {
  // PPSC_OBS_DUMP=<path> makes any binary write its final registry
  // snapshot at exit; the exit hook calls write_snapshot_if_requested,
  // exercised here directly (the atexit registration itself happens in
  // the registry constructor, which already ran for this process).
  const std::string path = testing::TempDir() + "/ppsc_obs_dump.json";
  std::remove(path.c_str());
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  registry.add("dump.probe", 11);
  ASSERT_EQ(setenv("PPSC_OBS_DUMP", path.c_str(), 1), 0);
  EXPECT_TRUE(ppsc::obs::write_snapshot_if_requested());
  ASSERT_EQ(unsetenv("PPSC_OBS_DUMP"), 0);
  registry.set_enabled(false);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "snapshot not written to " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"dump.probe\":11"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsReport, DumpIsInertWithoutEnv) {
  ASSERT_EQ(unsetenv("PPSC_OBS_DUMP"), 0);
  EXPECT_FALSE(ppsc::obs::write_snapshot_if_requested());
}

TEST(ObsReport, DumpUnwritablePathFailsGracefully) {
  // An unwritable PPSC_OBS_DUMP target (here: a path inside a
  // directory that does not exist) must fail *gracefully*: report
  // false, crash nothing, and leave no partial file behind. This is
  // the negative arm of DumpSnapshotWhenEnvRequests -- the atexit hook
  // runs this same function, so a crash here would turn every
  // instrumented binary's clean exit into an abort.
  const std::string dir = testing::TempDir() + "/ppsc_no_such_dir";
  const std::string path = dir + "/snapshot.json";
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);
  registry.add("dump.unwritable.probe", 1);
  ASSERT_EQ(setenv("PPSC_OBS_DUMP", path.c_str(), 1), 0);
  EXPECT_FALSE(ppsc::obs::write_snapshot_if_requested());
  ASSERT_EQ(unsetenv("PPSC_OBS_DUMP"), 0);
  registry.set_enabled(false);
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "partial dump left at " << path;
}

#endif  // PPSC_OBS_ENABLED

TEST(ObsReport, InertWithoutEnv) {
  const std::string path =
      testing::TempDir() + "/ppsc_obs_report_inert.json";
  std::remove(path.c_str());
  ASSERT_EQ(unsetenv("PPSC_BENCH_JSON"), 0);
  const bool was_enabled = MetricRegistry::global().enabled();
  { ppsc::bench::Report report("inert_probe"); }
  EXPECT_EQ(MetricRegistry::global().enabled(), was_enabled);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

}  // namespace
