// E11 — Simulator throughput (google-benchmark).
//
// The repro target: high-throughput agent interaction simulation. Measures
// raw draws/second of the agent-array kernel at one shard across
// population sizes and protocols, the kernel's large-population sweep
// (10^6 -> 10^8 agents across shard counts -- the tentpole trajectory:
// the 8-shard arm at 10^7+ agents must hold >= 5x the one-shard
// items/sec), the census scheduler at populations no agent array can
// hold (10^9), and the count-based scheduler for comparison.
//
// Before any benchmark runs, main() executes the observability overhead
// guard: it runs the one-shard kernel with the metric registry off and
// on, interleaved, and fails the binary when the instrumented median
// falls more than 5% below the bare one -- the "near-zero overhead"
// claim, enforced on every smoke-test run. PPSC_SKIP_OVERHEAD_GUARD=1
// bypasses it (for heavily loaded or throttled machines).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "core/constructions.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/census.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"

namespace {

using ppsc::core::Count;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

bool overhead_guard() {
  const char* skip = std::getenv("PPSC_SKIP_OVERHEAD_GUARD");
  if (skip != nullptr && *skip != '\0') {
    std::fprintf(stderr, "e11 overhead guard: skipped by env\n");
    return true;
  }
  ppsc::obs::MetricRegistry& registry = ppsc::obs::MetricRegistry::global();
  const bool was_enabled = registry.enabled();

  auto c = ppsc::core::unary_counting(8);
  auto table = ppsc::sim::PairRuleTable::build(c.protocol);
  const ppsc::core::Config initial = c.protocol.initial_config({100000});
  constexpr std::uint64_t kDraws = 1'000'000;
  ppsc::sim::ShardedOptions one_shard;
  one_shard.shards = 1;
  const auto measure = [&](bool obs) {
    // The same kernel either way; the instrumented arm publishes its
    // run totals into the live registry inside the timed region.
    registry.set_enabled(obs);
    ppsc::sim::ShardedSimulator simulator(*table, initial, 42, one_shard);
    const auto start = std::chrono::steady_clock::now();
    while (simulator.interactions() < kDraws && simulator.epoch()) {
    }
    simulator.publish_metrics();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return static_cast<double>(simulator.interactions()) / elapsed.count();
  };

  bool ok = false;
  for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
    measure(false);  // warm-up: page in the agent array, settle the clock
    measure(true);
    std::vector<double> bare, instrumented;
    for (int rep = 0; rep < 5; ++rep) {
      // Interleaved so slow drift (thermal, noisy neighbours) hits both
      // arms alike; the median discards one-off stalls.
      bare.push_back(measure(false));
      instrumented.push_back(measure(true));
    }
    const double bare_med = median(bare);
    const double inst_med = median(instrumented);
    const double delta = (bare_med - inst_med) / bare_med;
    std::fprintf(stderr,
                 "e11 overhead guard: bare %.3e draws/s, instrumented %.3e "
                 "(delta %+.2f%%, attempt %d)\n",
                 bare_med, inst_med, 100.0 * delta, attempt + 1);
    ok = delta < 0.05;
  }
  registry.set_enabled(was_enabled);
  if (!ok) {
    std::fprintf(stderr,
                 "e11 overhead guard: FAILED -- the instrumented kernel is "
                 ">5%% slower than the bare kernel in 3 attempts\n");
  }
  return ok;
}

// The one-shard agent-array kernel, one epoch per iteration; items
// count raw draws. A run that falls silent is restarted on the next
// seed with timing paused, so no timed iteration steps a silent
// population.
void run_agent_array(benchmark::State& state,
                     const ppsc::core::ConstructedProtocol& c,
                     const ppsc::core::Config& initial, std::uint64_t seed) {
  auto table = ppsc::sim::PairRuleTable::build(c.protocol);
  ppsc::sim::ShardedOptions one_shard;
  one_shard.shards = 1;
  std::optional<ppsc::sim::ShardedSimulator> simulator;
  simulator.emplace(*table, initial, seed, one_shard);
  std::uint64_t draws = 0;
  for (auto _ : state) {
    if (!simulator->epoch()) {
      state.PauseTiming();
      draws += simulator->interactions();
      simulator.emplace(*table, initial, ++seed, one_shard);
      state.ResumeTiming();
    }
  }
  draws += simulator->interactions();
  state.SetItemsProcessed(static_cast<std::int64_t>(draws));
}

void BM_AgentArray_Unary(benchmark::State& state) {
  auto c = ppsc::core::unary_counting(8);
  run_agent_array(state, c, c.protocol.initial_config({state.range(0)}), 42);
}
BENCHMARK(BM_AgentArray_Unary)
    ->Arg(100)
    ->Arg(10000)
    ->Arg(1000000)
    ->Arg(10000000);

// The tentpole sweep: one population, sharded. Each iteration is one
// epoch (shards * K draws), so items/sec counts raw draws -- the same
// unit as the agent-array arms. Only deterministic counters are
// attached (bench_compare requires custom counters to be exact). The
// shard workers run on other threads, so rates are taken over wall
// clock (UseRealTime), not the main thread's CPU time.
void BM_Sharded_Unary(benchmark::State& state) {
  auto c = ppsc::core::unary_counting(8);
  auto table = ppsc::sim::PairRuleTable::build(c.protocol);
  const Count population = state.range(0);
  ppsc::sim::ShardedOptions options;
  options.shards = static_cast<std::size_t>(state.range(1));
  ppsc::sim::ShardedSimulator simulator(
      *table, c.protocol.initial_config({population}), 42, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.epoch());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(simulator.interactions()));
  state.counters["shards"] =
      static_cast<double>(simulator.num_shards());
}
BENCHMARK(BM_Sharded_Unary)
    ->UseRealTime()
    ->Args({1000000, 8})
    ->Args({10000000, 1})
    ->Args({10000000, 2})
    ->Args({10000000, 4})
    ->Args({10000000, 8})
    ->Args({100000000, 8});

// Census scheduler: population-independent productive steps/sec, at
// populations no agent array can hold. Items count *productive*
// steps; the analytically skipped null draws are what make the path
// cheap, so items/sec here is not comparable to the draw-rate arms.
// A run that falls silent inside the time budget is restarted (on the
// next seed) with timing paused, so no timed iteration steps a silent
// census.
void BM_Census_Unary(benchmark::State& state) {
  auto c = ppsc::core::unary_counting(8);
  auto table = ppsc::sim::PairRuleTable::build(c.protocol);
  const ppsc::core::Config initial =
      c.protocol.initial_config({state.range(0)});
  std::uint64_t seed = 42;
  std::optional<ppsc::sim::CensusSimulator> simulator;
  simulator.emplace(*table, initial, seed);
  std::uint64_t productive = 0;
  for (auto _ : state) {
    if (!simulator->step()) {
      state.PauseTiming();
      productive += simulator->steps();
      simulator.emplace(*table, initial, ++seed);
      state.ResumeTiming();
    }
  }
  productive += simulator->steps();
  state.SetItemsProcessed(static_cast<std::int64_t>(productive));
}
BENCHMARK(BM_Census_Unary)
    ->Arg(1000000)
    ->Arg(100000000)
    ->Arg(1000000000);

void BM_AgentArray_Example42(benchmark::State& state) {
  auto c = ppsc::core::example_4_2(state.range(0) / 2);
  run_agent_array(state, c, c.protocol.initial_config({state.range(0)}), 7);
}
BENCHMARK(BM_AgentArray_Example42)->Arg(1000)->Arg(100000);

void BM_AgentArray_Majority(benchmark::State& state) {
  auto c = ppsc::core::majority();
  const Count half = state.range(0) / 2;
  run_agent_array(state, c, c.protocol.initial_config({half + 1, half}), 3);
}
BENCHMARK(BM_AgentArray_Majority)->Arg(1000)->Arg(100000);

// Count scheduler: items count productive steps. unary_counting(8)
// at 100 agents falls silent within the time budget; like the census
// arm, a silent run is restarted on the next seed with timing paused.
void BM_CountScheduler_Unary(benchmark::State& state) {
  auto c = ppsc::core::unary_counting(8);
  const ppsc::core::Config initial =
      c.protocol.initial_config({state.range(0)});
  std::uint64_t seed = 42;
  std::optional<ppsc::sim::CountSimulator> simulator;
  simulator.emplace(c.protocol, initial, seed);
  std::uint64_t productive = 0;
  for (auto _ : state) {
    if (!simulator->step()) {
      state.PauseTiming();
      productive += simulator->steps();
      simulator.emplace(c.protocol, initial, ++seed);
      state.ResumeTiming();
    }
  }
  productive += simulator->steps();
  state.SetItemsProcessed(static_cast<std::int64_t>(productive));
}
BENCHMARK(BM_CountScheduler_Unary)->Arg(100)->Arg(10000);

void BM_RuleTableBuild(benchmark::State& state) {
  auto c = ppsc::core::unary_counting(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppsc::sim::PairRuleTable::build(c.protocol));
  }
}
BENCHMARK(BM_RuleTableBuild)->Arg(8)->Arg(32)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  // PPSC_TRACE_JSON: arm the span tracer before the guard + benchmarks
  // and export after. The guard toggles only the *metric* registry, so
  // tracing stays on across it (the kernel's epochs open no spans --
  // tracing cannot perturb the overhead measurement).
  if (ppsc::obs::trace_json_env() != nullptr) {
    ppsc::obs::TraceRegistry::global().set_enabled(true);
  }
  if (!overhead_guard()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ppsc::obs::write_trace_if_requested();
  return 0;
}
