// E19 — Convergence profiles: the census trajectory of a run.
//
// How the 1-consensus spreads through the population over time, per family.
// The profile is the figure-equivalent of convergence dynamics: unary
// protocols show a long merge phase followed by a fast epidemic spread of
// F; Example 4.2 converts almost instantly once the leaders are exhausted.

#include <cstdint>
#include <cstdio>

#include "core/constructions.h"
#include "petri/coverability.h"
#include "petri/karp_miller.h"
#include "petri/petri_net.h"
#include "petri/reachability.h"
#include "report.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"
#include "sim/trace.h"
#include "util/table.h"
#include "verify/stable.h"

namespace {

std::uint64_t print_profile(const char* name,
                            const ppsc::core::ConstructedProtocol& c,
                            ppsc::core::Count population) {
  auto trace = ppsc::sim::record_census_trace(c.protocol, {population},
                                              5'000'000, /*seed=*/5);
  std::printf("%s, population %lld (converged=%d, %llu steps):\n", name,
              static_cast<long long>(population), trace.converged,
              static_cast<unsigned long long>(trace.total_steps));
  ppsc::util::TablePrinter table({"step", "outputs 0", "outputs 1",
                                  "1-fraction"});
  for (const auto& point : trace.points) {
    double total =
        static_cast<double>(point.output_zero + point.output_star +
                            point.output_one);
    table.add_row({std::to_string(point.step),
                   std::to_string(point.output_zero),
                   std::to_string(point.output_one),
                   ppsc::util::format_double(
                       total > 0 ? static_cast<double>(point.output_one) /
                                       total
                                 : 0.0,
                       3)});
  }
  table.print();
  std::printf("\n");
  return trace.total_steps;
}

// The engine-level view of the same families: petri::explore's per-run
// ExploreStats show what the BFS paid to intern the state space (the
// census bench doubles as the explore profiling harness).
void print_state_space_census() {
  std::printf("State-space census (petri::explore stats, population 6):\n\n");
  ppsc::util::TablePrinter table({"family", "configs", "edges",
                                  "frontier peak", "truncated"});
  struct Family {
    const char* name;
    ppsc::core::ConstructedProtocol constructed;
  };
  const ppsc::core::Count population = 6;
  for (Family family : {Family{"unary(8)", ppsc::core::unary_counting(8)},
                        Family{"binary(8)", ppsc::core::binary_counting(8)},
                        Family{"threshold_belief(8)",
                               ppsc::core::threshold_belief(8)},
                        Family{"example_4_2(8)",
                               ppsc::core::example_4_2(8)}}) {
    ppsc::petri::ExploreLimits limits;
    limits.max_nodes = 200000;
    const auto graph = ppsc::petri::explore(
        family.constructed.protocol.net(),
        {ppsc::petri::Config(
            family.constructed.protocol.initial_config({population}))},
        limits);
    table.add_row({family.name, std::to_string(graph.stats.configs),
                   std::to_string(graph.stats.edges),
                   std::to_string(graph.stats.frontier_peak),
                   graph.stats.truncated ? "yes" : "no"});
  }
  table.print();
  std::printf("\n");
}

// One small run of every engine on the same family (unary counting).
// The census bench is the designated trace sample (scripts/bench_report.sh
// archives its PPSC_TRACE_JSON output), so this section guarantees the
// trace holds nested spans from all engines -- explore, coverability,
// karp_miller, expected_time, verify, and a multi-threaded sim sweep
// whose per-run spans land on distinct worker-thread tracks.
void print_engine_cross_section() {
  std::printf("Engine cross-section (unary(6), one query per engine):\n\n");
  ppsc::util::TablePrinter table({"engine", "result", "work"});
  auto c = ppsc::core::unary_counting(6);
  const ppsc::petri::PetriNet& net = c.protocol.net();
  const ppsc::petri::Config source(c.protocol.initial_config({5}));
  const ppsc::petri::Config target = ppsc::petri::Config::unit(
      c.protocol.num_states(), c.protocol.states().at("6!"));

  ppsc::petri::BackwardBasisStats basis_stats;
  const auto basis =
      ppsc::petri::backward_basis(net, target, 1u << 22, &basis_stats);
  table.add_row({"coverability", std::to_string(basis.size()) + " basis",
                 std::to_string(basis_stats.iterations) + " iterations"});

  const auto km = ppsc::petri::karp_miller(net, source, 100000);
  table.add_row({"karp_miller", std::to_string(km.nodes.size()) + " nodes",
                 km.covers(target) ? "covers 6!" : "no cover"});

  const auto et =
      ppsc::sim::expected_interactions_to_silence(c.protocol, {5}, 200000);
  table.add_row({"expected_time",
                 ppsc::util::format_double(et.expected_steps, 2) + " steps",
                 std::to_string(et.sccs) + " sccs"});

  const auto verdict = ppsc::verify::check_input(
      c.protocol, c.predicate, {5}, ppsc::verify::CheckOptions{});
  table.add_row({"verify", verdict.ok ? "ok" : "FAIL",
                 std::to_string(verdict.reachable_configs) + " configs"});

  ppsc::sim::RunOptions options;
  options.max_steps = 2'000'000;
  const auto sweep = ppsc::sim::measure_convergence_parallel(
      c, {5}, /*runs=*/8, options, /*num_threads=*/4);
  table.add_row({"sim.parallel", std::to_string(sweep.converged) + "/8 runs",
                 ppsc::util::format_double(sweep.mean_steps, 1) +
                     " mean steps"});
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  ppsc::bench::Report report("e19_census_profile");
  std::printf("E19: output census trajectories (accepting runs)\n\n");
  std::uint64_t steps = 0;
  steps += print_profile("unary(8)", ppsc::core::unary_counting(8), 256);
  steps += print_profile("binary(8)", ppsc::core::binary_counting(8), 256);
  steps +=
      print_profile("threshold_belief(8)", ppsc::core::threshold_belief(8),
                    256);
  steps += print_profile("example_4_2(8)", ppsc::core::example_4_2(8), 256);
  report.add_items(static_cast<double>(steps));
  print_state_space_census();
  print_engine_cross_section();
  std::printf(
      "All profiles end at 1-fraction = 1.0; the knee where the fraction\n"
      "jumps marks the accept event, after which conversion is an epidemic\n"
      "(logarithmic parallel time).\n");
  return 0;
}
