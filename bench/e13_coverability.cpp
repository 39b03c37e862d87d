// E13 — Coverability engine scaling (google-benchmark).
//
// Backward-basis coverability and Karp–Miller on parameterized nets: the
// decision procedures behind the Section 5 stabilization tests. The
// backward benchmarks attach the engine's BackwardBasisStats as
// counters (basis peak, predecessors, skipped steps, dominance
// comparisons, ...), and the JSON emitted by --benchmark_out carries
// them for trend tracking. `skipped` counts the backward steps the
// engine never builds (transitions that produce on no marked place),
// and `comparisons` counts only the covers() calls its support
// signatures cannot rule out: on StabilizationTest_Unary/8 that is
// 14,586 calls where a plain scan of every basis element per
// predecessor makes 1,797,948.

#include <benchmark/benchmark.h>

#include "core/constructions.h"
#include "obs/trace.h"
#include "petri/coverability.h"
#include "petri/karp_miller.h"

namespace {

using ppsc::petri::Config;
using ppsc::petri::Count;
using ppsc::petri::PetriNet;

// One extra instrumented backward_basis call after timing, so the
// fixpoint statistics ride along as benchmark counters without
// perturbing the measured loop.
void attach_backward_stats(benchmark::State& state, const PetriNet& net,
                           const Config& target) {
  ppsc::petri::BackwardBasisStats stats;
  ppsc::petri::backward_basis(net, target, 1u << 22, &stats);
  state.counters["basis_final"] = static_cast<double>(stats.basis_final);
  state.counters["basis_peak"] = static_cast<double>(stats.basis_peak);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
  state.counters["predecessors"] = static_cast<double>(stats.predecessors);
  state.counters["skipped"] = static_cast<double>(stats.skipped);
  state.counters["pruned"] = static_cast<double>(stats.pruned_dominated);
  state.counters["comparisons"] = static_cast<double>(stats.comparisons);
}

/// Chain net: s0 -> s1 -> ... -> s_{d-1}, cover the last place.
PetriNet chain_net(std::size_t d) {
  PetriNet net(d);
  for (std::size_t s = 0; s + 1 < d; ++s) {
    net.add(Config::unit(d, static_cast<std::uint32_t>(s)),
            Config::unit(d, static_cast<std::uint32_t>(s + 1)));
  }
  return net;
}

void BM_BackwardCoverability_Chain(benchmark::State& state) {
  const std::size_t d = state.range(0);
  PetriNet net = chain_net(d);
  Config source = Config::unit(d, 0, 3);
  Config target = Config::unit(d, static_cast<std::uint32_t>(d - 1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppsc::petri::coverable(net, source, target));
  }
  attach_backward_stats(state, net, target);
}
BENCHMARK(BM_BackwardCoverability_Chain)->Arg(4)->Arg(8)->Arg(16);

void BM_BackwardCoverability_Example42(benchmark::State& state) {
  auto c = ppsc::core::example_4_2(state.range(0));
  Config source = c.protocol.initial_config({state.range(0) + 1});
  // Covering a fed leader F is the "some leader got fed" query.
  Config target =
      Config::unit(c.protocol.num_states(), c.protocol.states().at("F"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ppsc::petri::coverable(c.protocol.net(), source, target));
  }
  attach_backward_stats(state, c.protocol.net(), target);
}
BENCHMARK(BM_BackwardCoverability_Example42)->Arg(2)->Arg(8)->Arg(32);

void BM_StabilizationTest_Unary(benchmark::State& state) {
  // is_stabilized = one backward-coverability query per witness state;
  // the accumulated-n witness "n!" is the interesting one.
  auto c = ppsc::core::unary_counting(state.range(0));
  Config rho = c.protocol.initial_config({state.range(0) - 1});
  Config target = Config::unit(
      c.protocol.num_states(),
      c.protocol.states().at(std::to_string(state.range(0)) + "!"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ppsc::petri::coverable(c.protocol.net(), rho, target));
  }
  attach_backward_stats(state, c.protocol.net(), target);
}
BENCHMARK(BM_StabilizationTest_Unary)->Arg(4)->Arg(6)->Arg(8);

void BM_KarpMiller_Example42(benchmark::State& state) {
  auto c = ppsc::core::example_4_2(state.range(0));
  Config source = c.protocol.initial_config({state.range(0)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ppsc::petri::karp_miller(c.protocol.net(), source, 100000));
  }
}
BENCHMARK(BM_KarpMiller_Example42)->Arg(2)->Arg(4);

void BM_ShortestCoveringWord_Unary(benchmark::State& state) {
  auto c = ppsc::core::unary_counting(6);
  Config source = c.protocol.initial_config({state.range(0)});
  Config target =
      Config::unit(c.protocol.num_states(), c.protocol.states().at("6!"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppsc::petri::shortest_covering_word(
        c.protocol.net(), source, target, 200000));
  }
  // Forward-search ExploreStats from one untimed run.
  const auto result = ppsc::petri::shortest_covering_word(
      c.protocol.net(), source, target, 200000);
  state.counters["configs"] = static_cast<double>(result.stats.configs);
  state.counters["edges"] = static_cast<double>(result.stats.edges);
  state.counters["frontier_peak"] =
      static_cast<double>(result.stats.frontier_peak);
  state.counters["probes"] = static_cast<double>(result.stats.probes);
}
BENCHMARK(BM_ShortestCoveringWord_Unary)->Arg(6)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  // PPSC_TRACE_JSON: same contract as e11 -- arm the span tracer before
  // the benchmarks run, export a Chrome trace after.
  if (ppsc::obs::trace_json_env() != nullptr) {
    ppsc::obs::TraceRegistry::global().set_enabled(true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  ppsc::obs::write_trace_if_requested();
  return 0;
}
