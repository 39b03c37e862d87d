// Concurrency stress tests for the observability layer and the
// parallel sweep runner. These are the workloads the sanitizer CI
// jobs (PPSC_SANITIZE=thread in particular) exist to check: they
// deliberately overlap writers with readers -- trace-ring appends
// racing collect() during ring wrap, metric publishes racing
// snapshot() across short-lived threads, sim/parallel sweeps racing a
// registry reader -- and assert that nothing tears. The last cases
// hold the pool-backed parallel-for (util/parallel.h) and the input
// odometers on it to their serial loops. Under a plain
// build they are functional tests; under TSan they are the race
// detectors the static-analysis gate blocks on (docs/static-analysis.md).
//
// Like the other obs suites, everything runs against the process
// globals; each test resets the registries and leaves them disabled.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/reachability.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "util/parallel.h"
#include "verify/stable.h"
#include "verify/wellspec.h"

namespace {

using ppsc::obs::MetricRegistry;
using ppsc::obs::ScopedSpan;
using ppsc::obs::TraceEvent;
using ppsc::obs::TraceRegistry;

#if PPSC_OBS_ENABLED

// Writer names indexed by writer id; events are validated against
// this table, so a torn slot (name from one writer, payload from
// another) cannot go unnoticed.
constexpr const char* kWriterNames[] = {"writer.0", "writer.1", "writer.2",
                                        "writer.3"};
constexpr std::size_t kWriters = 4;

// Concurrent ring writers past the wrap point, with the main thread
// collecting and exporting the whole time. The seqlock slots must
// never yield a torn event: every collected event's payload has to be
// internally consistent (name matches the writer id encoded in its
// arg, end = start + 1).
TEST(ConcurrencyTrace, CollectRacesWritersThroughRingWrap) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  // Enough appends per writer to lap the ring (capacity 2^16).
  const std::uint64_t per_writer = TraceRegistry::kRingCapacity + 4096;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, per_writer]() {
      for (std::uint64_t i = 0; i < per_writer; ++i) {
        TraceEvent event;
        event.name = kWriterNames[w];
        event.category = "stress";
        event.t_start_ns = 1 + i;
        event.t_end_ns = 2 + i;
        event.add_arg("writer", w);
        event.add_arg("i", i);
        TraceRegistry::global().append(event);
      }
    });
  }

  // Racing phase: collect repeatedly while the writers lap their
  // rings. Every event a racing collect returns must be internally
  // consistent -- the seqlock is allowed to *skip* in-flight slots,
  // never to tear one.
  for (int pass = 0; pass < 64; ++pass) {
    const std::vector<TraceEvent> events = registry.collect();
    for (const TraceEvent& e : events) {
      ASSERT_EQ(std::string(e.category), "stress");
      ASSERT_EQ(e.num_args, 2u);
      const std::uint64_t w = e.args[0].value;
      ASSERT_LT(w, kWriters);
      ASSERT_EQ(std::string(e.name), kWriterNames[w]);
      ASSERT_EQ(e.t_end_ns, e.t_start_ns + 1);
      ASSERT_EQ(e.args[1].value, e.t_start_ns - 1);
    }
  }

  for (std::thread& t : writers) t.join();

  // Quiescent now: the collect is complete. Each ring kept the newest
  // kRingCapacity events; the rest are accounted as dropped.
  const std::vector<TraceEvent> final_events = registry.collect();
  EXPECT_EQ(final_events.size(), kWriters * TraceRegistry::kRingCapacity);
  EXPECT_EQ(registry.dropped(),
            kWriters * (per_writer - TraceRegistry::kRingCapacity));
  registry.reset();
  registry.set_enabled(false);
}

// The satellite coverage ask: concurrent snapshot/export calls racing
// real ScopedSpan writers (RAII producers, live clock), not hand-built
// events. TSan-clean and tear-free.
TEST(ConcurrencyTrace, ExportRacesScopedSpanWriters) {
  TraceRegistry& registry = TraceRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < 2; ++w) {
    writers.emplace_back([&stop]() {
      while (!stop.load(std::memory_order_acquire)) {
        ScopedSpan outer("stress.outer", "stress");
        outer.arg("k", 1);
        ScopedSpan inner("stress.inner", "stress");
      }
    });
  }

  for (int pass = 0; pass < 32; ++pass) {
    const std::vector<TraceEvent> events = registry.collect();
    for (const TraceEvent& e : events) {
      const std::string name(e.name);
      ASSERT_TRUE(name == "stress.outer" || name == "stress.inner");
      ASSERT_LE(e.t_start_ns, e.t_end_ns);
    }
    // The JSON exporter shares collect(); exercise it under race too.
    const std::string json = registry.to_chrome_json();
    ASSERT_NE(json.find("traceEvents"), std::string::npos);
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : writers) t.join();
  registry.reset();
  registry.set_enabled(false);
}

// Thread churn against the metric registry: batches of short-lived
// threads publish counters and histograms while the main
// thread snapshots concurrently. Per-thread sheets are registered
// under the registry mutex and merged at snapshot, so the final
// quiescent snapshot must account for every publish exactly once.
TEST(ConcurrencyMetrics, SnapshotRacesPublishersUnderThreadChurn) {
  MetricRegistry& registry = MetricRegistry::global();
  registry.reset();
  registry.set_enabled(true);

  constexpr int kBatches = 8;
  constexpr int kThreadsPerBatch = 4;
  constexpr std::uint64_t kAddsPerThread = 256;
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<std::thread> publishers;
    publishers.reserve(kThreadsPerBatch);
    for (int t = 0; t < kThreadsPerBatch; ++t) {
      publishers.emplace_back([]() {
        MetricRegistry& reg = MetricRegistry::global();
        for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
          reg.add("stress.counter", 1);
          reg.record("stress.histogram", i);
        }
        reg.add("stress.ops", 1);
      });
    }
    // Snapshot while the batch runs: in-flight deltas may or may not
    // be visible, but the merge itself must be race-free and every
    // observed value monotone in the final tally's direction.
    const ppsc::obs::MetricSnapshot racing = registry.snapshot();
    const auto it = racing.counters.find("stress.counter");
    if (it != racing.counters.end()) {
      EXPECT_LE(it->second, static_cast<std::uint64_t>(kBatches) *
                                kThreadsPerBatch * kAddsPerThread);
    }
    for (std::thread& t : publishers) t.join();
  }

  const ppsc::obs::MetricSnapshot final_snapshot = registry.snapshot();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kBatches) * kThreadsPerBatch *
      kAddsPerThread;
  EXPECT_EQ(final_snapshot.counters.at("stress.counter"), expected);
  EXPECT_EQ(final_snapshot.histograms.at("stress.histogram").count, expected);
  EXPECT_EQ(final_snapshot.counters.at("stress.ops"),
            static_cast<std::uint64_t>(kBatches) * kThreadsPerBatch);
  registry.reset();
  registry.set_enabled(false);
}

// A full instrumented parallel sweep racing a registry reader thread:
// the production concurrency pattern the sharding tentpole will lean
// on. Also re-asserts the 1-vs-N bit-determinism contract with
// observability enabled and a reader hammering both registries.
TEST(ConcurrencyParallel, SweepRacesRegistryReaders) {
  MetricRegistry& metrics = MetricRegistry::global();
  TraceRegistry& traces = TraceRegistry::global();
  metrics.reset();
  traces.reset();
  metrics.set_enabled(true);
  traces.set_enabled(true);

  const ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(4);
  const std::vector<ppsc::core::Count> input = {5};
  ppsc::sim::RunOptions options;
  options.seed = 2024;
  options.max_steps = 20000;

  std::atomic<bool> stop{false};
  std::thread reader([&stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      (void)MetricRegistry::global().snapshot();
      (void)TraceRegistry::global().collect();
      (void)TraceRegistry::global().dropped();
    }
  });

  const ppsc::sim::ConvergenceStats one =
      ppsc::sim::measure_convergence_parallel(cp, input, 16, options, 1);
  const ppsc::sim::ConvergenceStats four =
      ppsc::sim::measure_convergence_parallel(cp, input, 16, options, 4);
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(one.converged, four.converged);
  EXPECT_EQ(one.correct, four.correct);
  EXPECT_EQ(one.mean_steps, four.mean_steps);
  EXPECT_EQ(one.max_steps_observed, four.max_steps_observed);

  metrics.reset();
  traces.reset();
  metrics.set_enabled(false);
  traces.set_enabled(false);
}

// One petri::explore resolving its frontier batches on the pool while
// a reader thread hammers both registries. The pool's tasks read the
// arena and the intern table, and the caller's commit writes them
// between batches; under TSan this proves parallel_for's join orders
// the two. The graph, every explore.* counter and every span count
// must equal those of the same explore inside a pool task, which
// expands one head per batch.
TEST(ConcurrencyExplore, BatchesRaceRegistryReaders) {
  MetricRegistry& metrics = MetricRegistry::global();
  TraceRegistry& traces = TraceRegistry::global();
  const ppsc::core::ConstructedProtocol cp = ppsc::core::disjunction(
      ppsc::core::unary_counting(4), ppsc::core::modulo_counting(3, 0));
  const std::vector<ppsc::petri::Config> roots = {
      cp.protocol.initial_config({6})};
  struct Run {
    ppsc::petri::ReachabilityGraph graph;
    std::string snapshot;
    std::map<std::string, std::uint64_t> spans;
  };
  const auto traced = [&](const auto& explore) {
    metrics.reset();
    traces.reset();
    metrics.set_enabled(true);
    traces.set_enabled(true);
    Run run;
    run.graph = explore();
    metrics.set_enabled(false);
    traces.set_enabled(false);
    run.snapshot = metrics.snapshot().to_json();
    for (const auto& [name, totals] : ppsc::obs::profile(traces.collect())) {
      run.spans[name] = totals.count;
    }
    return run;
  };

  std::atomic<bool> stop{false};
  std::thread reader([&stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      (void)MetricRegistry::global().snapshot();
      (void)TraceRegistry::global().collect();
    }
  });
  const Run batched =
      traced([&] { return ppsc::petri::explore(cp.protocol.net(), roots); });
  stop.store(true, std::memory_order_release);
  reader.join();
  const Run inline_run = traced([&] {
    std::vector<ppsc::petri::ReachabilityGraph> graphs(2);
    ppsc::util::parallel_for(graphs.size(), [&](std::size_t i) {
      if (i == 0) graphs[i] = ppsc::petri::explore(cp.protocol.net(), roots);
    });
    return std::move(graphs[0]);
  });

  EXPECT_EQ(batched.graph.size(), 15449u);
  EXPECT_EQ(batched.graph.counts, inline_run.graph.counts);
  EXPECT_EQ(batched.graph.parent, inline_run.graph.parent);
  EXPECT_EQ(batched.graph.edge_begin, inline_run.graph.edge_begin);
  ASSERT_EQ(batched.graph.edges.size(), inline_run.graph.edges.size());
  for (std::size_t e = 0; e < batched.graph.edges.size(); ++e) {
    ASSERT_EQ(batched.graph.edges[e].target, inline_run.graph.edges[e].target);
  }
  EXPECT_EQ(batched.snapshot, inline_run.snapshot);
  EXPECT_EQ(batched.spans, inline_run.spans);
  EXPECT_EQ(batched.spans.count("explore.chunk"), 1u);
  metrics.reset();
  traces.reset();
}

// The sharded scheduler's hottest race surface: cross-shard exchange
// and the global census refresh run on the main thread between epoch
// barriers while four workers drain the intra-shard batches inside
// them. Maximal exchange pressure (shift 0: one transposition per
// intra-shard draw) with short epochs (500-agent slices: K = R = 77,
// the table's partner entries) keeps the barriers firing as often as
// possible. Under TSan this proves the epoch barrier (atomic release
// and collection, spinning then parking) orders every slot write;
// under a plain build it is a determinism and conservation test.
TEST(ConcurrencySharded, ExchangeRacesIntraShardBatches) {
  if (ppsc::util::parallel_width() < 4) {
    GTEST_SKIP() << "needs a pool of four threads";
  }
  const ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(4);
  const auto table = ppsc::sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const ppsc::core::Config initial = cp.protocol.initial_config({4000});

  ppsc::sim::ShardedOptions options;
  options.shards = 8;
  options.workers = 4;
  options.exchange_shift = 0;
  ppsc::sim::ShardedSimulator threaded(*table, initial, 31, options);
  options.workers = 1;
  ppsc::sim::ShardedSimulator serial(*table, initial, 31, options);
  ASSERT_EQ(threaded.num_workers(), 4u);

  const ppsc::core::Count population = threaded.population();
  for (int e = 0; e < 200; ++e) {
    threaded.epoch();
    serial.epoch();
    ASSERT_EQ(ppsc::core::Protocol::population(threaded.census()),
              population);
  }
  // Worker interleaving must be invisible in every observable.
  EXPECT_EQ(threaded.census(), serial.census());
  EXPECT_EQ(threaded.steps(), serial.steps());
  EXPECT_EQ(threaded.interactions(), serial.interactions());
  EXPECT_EQ(threaded.cross_swaps(), serial.cross_swaps());
  EXPECT_GT(threaded.cross_swaps(), 0u);
}

// Registry readers hammering snapshot/collect while sharded workers
// run epochs and publish -- the satellite's "snapshot/collect racing
// shard workers" case, plus the worker-count bit-determinism contract
// with observability enabled the whole time.
TEST(ConcurrencySharded, ReadersRaceShardWorkers) {
  MetricRegistry& metrics = MetricRegistry::global();
  TraceRegistry& traces = TraceRegistry::global();
  metrics.reset();
  traces.reset();
  metrics.set_enabled(true);
  traces.set_enabled(true);

  const ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(4);
  const auto table = ppsc::sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const ppsc::core::Config initial = cp.protocol.initial_config({4000});

  std::atomic<bool> stop{false};
  std::thread reader([&stop]() {
    while (!stop.load(std::memory_order_acquire)) {
      (void)MetricRegistry::global().snapshot();
      (void)TraceRegistry::global().collect();
    }
  });

  ppsc::sim::ShardedOptions options;
  options.shards = 4;
  options.workers = 4;
  ppsc::sim::ShardedSimulator threaded(*table, initial, 77, options);
  for (int e = 0; e < 100; ++e) threaded.epoch();
  threaded.publish_metrics();
  options.workers = 1;
  ppsc::sim::ShardedSimulator serial(*table, initial, 77, options);
  for (int e = 0; e < 100; ++e) serial.epoch();
  serial.publish_metrics();

  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(threaded.census(), serial.census());
  EXPECT_EQ(threaded.steps(), serial.steps());

  // Quiescent: both runs' publishes are merged exactly once.
  const ppsc::obs::MetricSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.counters.at("sim.shard.runs"), 2u);
  EXPECT_EQ(snapshot.counters.at("sim.shard.productive"),
            threaded.steps() + serial.steps());
  EXPECT_EQ(snapshot.counters.at("sim.shard.draws"),
            threaded.interactions() + serial.interactions());

  metrics.reset();
  traces.reset();
  metrics.set_enabled(false);
  traces.set_enabled(false);
}

#else  // !PPSC_OBS_ENABLED

TEST(ConcurrencyObsOff, RegistriesAreInert) {
  EXPECT_FALSE(TraceRegistry::global().enabled());
  EXPECT_FALSE(MetricRegistry::global().enabled());
  EXPECT_TRUE(TraceRegistry::global().collect().empty());
}

#endif  // PPSC_OBS_ENABLED

// The sharded epoch barrier's wait paths. An epoch is one call of the
// pool's parallel-for (util/parallel.h), whose workers spin for
// util::kSpinWindow after each call and park after it; these tests
// drive epochs down both paths, and hold every observable to the
// one-worker chain.

// A 4000-agent population in 8 slices: K = 77 draws per epoch, so
// barriers come every few microseconds and the workers stay spinning.
struct ShardedFixture {
  ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(4);
  std::optional<ppsc::sim::PairRuleTable> table =
      ppsc::sim::PairRuleTable::build(cp.protocol);
  ppsc::core::Config initial = cp.protocol.initial_config({4000});

  ppsc::sim::ShardedOptions options(unsigned workers) const {
    ppsc::sim::ShardedOptions options;
    options.shards = 8;
    options.workers = workers;
    return options;
  }
};

void expect_same_chain(const ppsc::sim::ShardedSimulator& threaded,
                       const ppsc::sim::ShardedSimulator& serial) {
  EXPECT_EQ(threaded.census(), serial.census());
  EXPECT_EQ(threaded.steps(), serial.steps());
  EXPECT_EQ(threaded.interactions(), serial.interactions());
  EXPECT_EQ(threaded.cross_swaps(), serial.cross_swaps());
}

// run(budget) crosses every barrier on the spin path. Budgets one step
// apart end each epoch early (a shard stops at its first productive
// draw), so the run crosses 761 barriers, and must continue the
// one-worker chain through all of them.
TEST(ConcurrencySharded, SpinningRunMatchesOneWorker) {
  if (ppsc::util::parallel_width() < 4) {
    GTEST_SKIP() << "needs a pool of four threads";
  }
  const ShardedFixture f;
  ASSERT_TRUE(f.table.has_value());
  ppsc::sim::ShardedSimulator threaded(*f.table, f.initial, 5, f.options(4));
  ppsc::sim::ShardedSimulator serial(*f.table, f.initial, 5, f.options(1));
  ASSERT_EQ(threaded.num_workers(), 4u);
  for (std::uint64_t budget = 1; budget < 6000; ++budget) {
    threaded.run(budget);
    serial.run(budget);
    ASSERT_EQ(threaded.steps(), serial.steps()) << "budget " << budget;
  }
  expect_same_chain(threaded, serial);
  EXPECT_FALSE(threaded.silent());
  EXPECT_EQ(threaded.epochs(), 761u);
}

// A pause longer than the pool's spin window between epochs sends
// every worker, and the caller's wait for them, through the park path.
TEST(ConcurrencySharded, ParkedWorkersWakeForEveryEpoch) {
  const ShardedFixture f;
  ASSERT_TRUE(f.table.has_value());
  ppsc::sim::ShardedSimulator threaded(*f.table, f.initial, 13, f.options(4));
  ppsc::sim::ShardedSimulator serial(*f.table, f.initial, 13, f.options(1));
  for (int e = 0; e < 12; ++e) {
    std::this_thread::sleep_for(2 * ppsc::util::kSpinWindow);
    threaded.epoch();
    serial.epoch();
  }
  expect_same_chain(threaded, serial);
  EXPECT_EQ(threaded.epochs(), 12u);
}

// A simulator destroyed while the pool's workers still spin on its last
// epoch, or after they parked, leaves the pool serving the next
// simulator and the next plain call.
TEST(ConcurrencySharded, DestroyedMidWindowLeavesThePoolUsable) {
  const ShardedFixture f;
  ASSERT_TRUE(f.table.has_value());
  ppsc::sim::ShardedSimulator serial(*f.table, f.initial, 9, f.options(1));
  serial.run(3000);
  for (int round = 0; round < 30; ++round) {
    {
      ppsc::sim::ShardedSimulator threaded(*f.table, f.initial, 9,
                                           f.options(4));
      if (round % 3 != 0) {  // round 0 mod 3: destroyed before any epoch
        threaded.run(3000);
        expect_same_chain(threaded, serial);
      }
    }
    if (round % 3 == 2) {
      std::this_thread::sleep_for(2 * ppsc::util::kSpinWindow);
    }
    std::vector<std::atomic<int>> calls(64);
    ppsc::util::parallel_for(calls.size(),
                             [&](std::size_t i) { calls[i].fetch_add(1); });
    for (const std::atomic<int>& c : calls) ASSERT_EQ(c.load(), 1);
  }
}

#if defined(__linux__)
// Threads of this process, the caller included.
std::size_t live_threads() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}
#endif

// Neither a forced multi-shard sweep on every core, a batched explore
// nor a lone four-worker simulator starts a thread beyond the warmed
// pool: a sampler polls the thread count while the sweep and the
// explore run (the sampler itself is the one extra thread), and the
// lone simulator is counted while it is alive. Both sim results are
// the one-thread results, bit for bit.
TEST(ConcurrencySharded, NoThreadsOutsideThePool) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts threads through /proc/self/task";
#else
  const unsigned width = ppsc::util::parallel_width();
  ppsc::util::parallel_for(width, [](std::size_t) {});  // start the pool
  const std::size_t pool = live_threads();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> peak{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::size_t now = live_threads();
      if (now > peak.load(std::memory_order_relaxed)) {
        peak.store(now, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });

  const ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(4);
  ppsc::sim::RunOptions run;
  run.scheduler = ppsc::sim::SchedulerChoice::kSharded;
  run.shards = 8;
  run.seed = 41;
  const ppsc::sim::ConvergenceStats wide =
      ppsc::sim::measure_convergence_parallel(cp, {1000}, 8, run, width);
  // An explore whose frontier batches resolve on the pool.
  const ppsc::petri::ReachabilityGraph graph = ppsc::petri::explore(
      cp.protocol.net(), {cp.protocol.initial_config({24})});
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_LE(peak.load(), pool + 1);
  EXPECT_GE(graph.stats.frontier_peak, 512u);

  const ShardedFixture f;
  ASSERT_TRUE(f.table.has_value());
  ppsc::sim::ShardedSimulator threaded(*f.table, f.initial, 17, f.options(4));
  threaded.run(5000);
  EXPECT_EQ(live_threads(), pool);

  const ppsc::sim::ConvergenceStats one =
      ppsc::sim::measure_convergence_parallel(cp, {1000}, 8, run, 1);
  EXPECT_EQ(wide.converged, one.converged);
  EXPECT_EQ(wide.correct, one.correct);
  EXPECT_EQ(wide.mean_steps, one.mean_steps);
  EXPECT_EQ(wide.max_steps_observed, one.max_steps_observed);
  ppsc::sim::ShardedSimulator serial(*f.table, f.initial, 17, f.options(1));
  serial.run(5000);
  expect_same_chain(threaded, serial);
#endif
}

// The ordered parallel-for (util/parallel.h) and the input odometers
// on it. The parallel check_up_to and check_well_specification_up_to
// must return, element for element, what the serial odometer loop
// over check_input / classify_input returns, and throw what it throws.

// Every verdict of the serial loop over the box, in odometer order.
std::vector<ppsc::verify::Verdict> serial_check(
    const ppsc::core::Protocol& protocol,
    const ppsc::core::Predicate& predicate, ppsc::core::Count bound,
    const ppsc::verify::CheckOptions& options = {}) {
  std::vector<ppsc::verify::Verdict> verdicts;
  ppsc::verify::for_each_point<std::vector<ppsc::core::Count>>(
      protocol.input_arity(), bound,
      [&](const std::vector<ppsc::core::Count>& input) {
        verdicts.push_back(
            ppsc::verify::check_input(protocol, predicate, input, options));
        return true;
      });
  return verdicts;
}

std::vector<ppsc::verify::WellSpecVerdict> serial_classify(
    const ppsc::core::Protocol& protocol, ppsc::core::Count bound,
    const ppsc::verify::CheckOptions& options = {}) {
  std::vector<ppsc::verify::WellSpecVerdict> verdicts;
  ppsc::verify::for_each_point<std::vector<ppsc::core::Count>>(
      protocol.input_arity(), bound,
      [&](const std::vector<ppsc::core::Count>& input) {
        verdicts.push_back(
            ppsc::verify::classify_input(protocol, input, options));
        return true;
      });
  return verdicts;
}

void expect_same_verdicts(const std::vector<ppsc::verify::Verdict>& parallel,
                          const std::vector<ppsc::verify::Verdict>& serial) {
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].input, serial[i].input) << "verdict " << i;
    EXPECT_EQ(parallel[i].ok, serial[i].ok) << "verdict " << i;
    EXPECT_EQ(parallel[i].reachable_configs, serial[i].reachable_configs)
        << "verdict " << i;
    EXPECT_EQ(parallel[i].detail, serial[i].detail) << "verdict " << i;
  }
}

void expect_same_verdicts(
    const std::vector<ppsc::verify::WellSpecVerdict>& parallel,
    const std::vector<ppsc::verify::WellSpecVerdict>& serial) {
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].input, serial[i].input) << "verdict " << i;
    EXPECT_EQ(parallel[i].value, serial[i].value) << "verdict " << i;
    EXPECT_EQ(parallel[i].reachable_configs, serial[i].reachable_configs)
        << "verdict " << i;
    EXPECT_EQ(parallel[i].detail, serial[i].detail) << "verdict " << i;
  }
}

// x >= 2 by "x + x -> x + y, x + y -> y + y", mutated by a rule that
// turns two y back into an x + y: no input of two or more agents ever
// falls silent on consensus 1, and the verdicts name a bottom config.
ppsc::core::ConstructedProtocol mutated_threshold() {
  ppsc::core::ProtocolBuilder b;
  b.state("x", ppsc::core::Output::kZero);
  b.state("y", ppsc::core::Output::kOne);
  b.initial("x");
  b.rule("x + x -> x + y");
  b.rule("x + y -> y + y");
  b.rule("y + y -> x + y");
  return {"mutated", b.build(), ppsc::core::counting_predicate(2)};
}

// The protocols the odometer tests sweep: the counting families, an
// arity-2 product, a product whose graphs grow geometrically, the
// mutated protocol, and a family checked against a predicate it does
// not compute.
struct Sweep {
  ppsc::core::ConstructedProtocol cp;
  ppsc::core::Count bound;
};

std::vector<Sweep> odometer_sweeps() {
  std::vector<Sweep> sweeps;
  for (ppsc::core::ConstructedProtocol& cp :
       ppsc::core::counting_families(3)) {
    sweeps.push_back({std::move(cp), 9});
  }
  sweeps.push_back({ppsc::core::example_4_2(3), 9});
  sweeps.push_back({ppsc::core::modulo_counting(3, 1), 9});
  sweeps.push_back({ppsc::core::conjunction(
                        ppsc::core::majority(),
                        ppsc::core::weighted_threshold({1, 2}, 3)),
                    4});
  // Graphs shrinking by more than half per point: the sweep runs most
  // of the box alone before it reaches the pool.
  sweeps.push_back({ppsc::core::conjunction(ppsc::core::unary_counting(2),
                                            ppsc::core::modulo_counting(2, 1)),
                    6});
  sweeps.push_back({mutated_threshold(), 9});
  ppsc::core::ConstructedProtocol shifted = ppsc::core::unary_counting(3);
  shifted.predicate = ppsc::core::counting_predicate(4);
  sweeps.push_back({std::move(shifted), 9});
  return sweeps;
}

TEST(ConcurrencyOdometer, CheckUpToMatchesTheSerialLoop) {
  // The verify.* counters, too: per-thread sheets merge into the same
  // snapshot as the serial loop's.
  MetricRegistry& metrics = MetricRegistry::global();
  std::size_t failing = 0;
  for (const Sweep& sweep : odometer_sweeps()) {
    SCOPED_TRACE(sweep.cp.predicate.name);
    metrics.reset();
    metrics.set_enabled(true);
    const std::vector<ppsc::verify::Verdict> serial =
        serial_check(sweep.cp.protocol, sweep.cp.predicate, sweep.bound);
    const std::string serial_snapshot = metrics.snapshot().to_json();
    metrics.reset();
    const std::vector<ppsc::verify::Verdict> parallel =
        ppsc::verify::check_up_to(sweep.cp.protocol, sweep.cp.predicate,
                                  sweep.bound)
            .verdicts;
    EXPECT_EQ(metrics.snapshot().to_json(), serial_snapshot);
    metrics.reset();
    metrics.set_enabled(false);
    expect_same_verdicts(parallel, serial);
    for (const ppsc::verify::Verdict& verdict : serial) {
      if (!verdict.ok) ++failing;
    }
  }
  // The mutated protocol and the shifted predicate fail somewhere, so
  // the detail strings were compared too.
  EXPECT_GT(failing, 0u);
}

TEST(ConcurrencyOdometer, WellSpecificationMatchesTheSerialLoop) {
  std::size_t unresolved = 0;
  for (const Sweep& sweep : odometer_sweeps()) {
    SCOPED_TRACE(sweep.cp.predicate.name);
    const std::vector<ppsc::verify::WellSpecVerdict> serial =
        serial_classify(sweep.cp.protocol, sweep.bound);
    expect_same_verdicts(ppsc::verify::check_well_specification_up_to(
                             sweep.cp.protocol, sweep.bound)
                             .verdicts,
                         serial);
    for (const ppsc::verify::WellSpecVerdict& verdict : serial) {
      if (!verdict.ok()) ++unresolved;
    }
  }
  EXPECT_GT(unresolved, 0u);
}

// Inputs past the cap throw; the parallel sweep must throw the first
// one's message, not the last point's (which it explores first) or
// whichever a pool worker hit first.
TEST(ConcurrencyOdometer, CapExceptionIsTheSerialLoops) {
  const ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(4);
  ppsc::verify::CheckOptions options;
  options.max_configs = 40;
  const auto message = [](const auto& call) {
    try {
      call();
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no exception");
  };
  const std::string serial = message(
      [&] { serial_check(cp.protocol, cp.predicate, 14, options); });
  ASSERT_NE(serial, "no exception");
  EXPECT_EQ(message([&] {
              ppsc::verify::check_up_to(cp.protocol, cp.predicate, 14,
                                        options);
            }),
            serial);
  const std::string serial_wellspec =
      message([&] { serial_classify(cp.protocol, 14, options); });
  ASSERT_NE(serial_wellspec, "no exception");
  EXPECT_EQ(message([&] {
              ppsc::verify::check_well_specification_up_to(cp.protocol, 14,
                                                           options);
            }),
            serial_wellspec);
}

// A check_up_to made from inside pool tasks runs inline there: it
// finishes, and returns what a top-level call returns.
TEST(ConcurrencyOdometer, CheckUpToInsideAPoolTaskRunsInline) {
  const ppsc::core::ConstructedProtocol cp = ppsc::core::unary_counting(3);
  const std::vector<ppsc::verify::Verdict> direct =
      ppsc::verify::check_up_to(cp.protocol, cp.predicate, 10).verdicts;
  std::vector<std::vector<ppsc::verify::Verdict>> nested(6);
  ppsc::util::parallel_for(nested.size(), [&](std::size_t i) {
    nested[i] =
        ppsc::verify::check_up_to(cp.protocol, cp.predicate, 10).verdicts;
  });
  for (const auto& verdicts : nested) expect_same_verdicts(verdicts, direct);
}

TEST(ConcurrencyParallelFor, RethrowsTheLowestIndexException) {
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> calls(64);
    try {
      ppsc::util::parallel_for(calls.size(), [&](std::size_t i) {
        calls[i].fetch_add(1);
        if (i % 7 == 5) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "5");
    }
    // Every index below the failure ran, exactly once.
    for (std::size_t i = 0; i <= 5; ++i) EXPECT_EQ(calls[i].load(), 1);
    for (std::atomic<int>& c : calls) EXPECT_LE(c.load(), 1);
  }
}

// runs_inline() answers for the calling thread: true inside every pool
// task, the caller's share included, and in a one-thread pool; false
// on an idle pool's caller, before and after a call, and inside a body
// that a call ran on the caller alone without the pool (max_threads 1,
// or a single index), where a nested call would still use the pool.
TEST(ConcurrencyParallelFor, RunsInlineIsTrueInsidePoolTasks) {
  const bool one_thread = ppsc::util::parallel_width() == 1;
  EXPECT_EQ(ppsc::util::runs_inline(), one_thread);
  std::vector<int> inside(16, 0);
  ppsc::util::parallel_for(inside.size(), [&](std::size_t i) {
    inside[i] = ppsc::util::runs_inline() ? 1 : 0;
  });
  for (const int flag : inside) EXPECT_EQ(flag, 1);
  EXPECT_EQ(ppsc::util::runs_inline(), one_thread);
  int alone = -1;
  ppsc::util::parallel_for(
      4, [&](std::size_t) { alone = ppsc::util::runs_inline() ? 1 : 0; }, 1);
  EXPECT_EQ(alone, one_thread ? 1 : 0);
  ppsc::util::parallel_for(
      1, [&](std::size_t) { alone = ppsc::util::runs_inline() ? 1 : 0; });
  EXPECT_EQ(alone, one_thread ? 1 : 0);
}

// Back-to-back calls meet the workers still spinning on the last one;
// a call after a pause past the spin window has to wake them from the
// park, and a full-width call after a two-thread one has to wake the
// workers that call turned away. Every index runs exactly once.
TEST(ConcurrencyParallelFor, CallsWhileWorkersSpinOrParkSeeEveryIndexOnce) {
  for (int round = 0; round < 40; ++round) {
    if (round % 4 == 3) {
      std::this_thread::sleep_for(2 * ppsc::util::kSpinWindow);
    }
    std::vector<std::atomic<int>> calls(64);
    ppsc::util::parallel_for(
        calls.size(), [&](std::size_t i) { calls[i].fetch_add(1); },
        round % 3 == 1 ? 2 : 0);
    for (const std::atomic<int>& c : calls) ASSERT_EQ(c.load(), 1);
  }
}

// Callers on several threads at once: one holds the pool, the others
// run inline; every call sees each index exactly once.
TEST(ConcurrencyParallelFor, ConcurrentCallersEachSeeEveryIndex) {
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCount = 200;
  std::vector<std::vector<int>> seen(kCallers, std::vector<int>(kCount, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&seen, c] {
      for (int round = 0; round < 25; ++round) {
        ppsc::util::parallel_for(kCount,
                                 [&](std::size_t i) { ++seen[c][i]; });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const std::vector<int>& counts : seen) {
    for (const int count : counts) EXPECT_EQ(count, 25);
  }
}

}  // namespace
