#include "verify/wellspec.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/reachability.h"

namespace ppsc {
namespace verify {

namespace {

using core::Config;
using core::Count;

// classify_input over a net compiled once by the caller (see
// check_input_on in stable.cpp).
WellSpecVerdict classify_input_on(const petri::PetriNet& net,
                                  const core::Protocol& protocol,
                                  const std::vector<core::Count>& input,
                                  const WellSpecOptions& options) {
  obs::ScopedTimer timer("verify.wellspec");
  obs::ScopedSpan span("verify.wellspec", "verify");
  WellSpecVerdict verdict;
  verdict.input = input;

  const Config initial = protocol.initial_config(input);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) registry.add("verify.wellspec.inputs", 1);
  if (core::Protocol::population(initial) == 0) {
    // Empty population: computes 0 by convention (see wellspec.h).
    verdict.value = false;
    verdict.reachable_configs = 1;
    return verdict;
  }

  petri::ExploreLimits limits;
  limits.max_nodes = options.max_configs;
  const petri::ReachabilityGraph graph = [&] {
    obs::ScopedSpan explore_span("verify.wellspec.explore", "verify");
    return petri::explore(net, {petri::Config(initial)}, limits);
  }();
  if (graph.truncated) {
    throw std::runtime_error(
        "verify::classify_input: reachability graph exceeds " +
        std::to_string(options.max_configs) + " configurations (explored " +
        petri::describe(graph.stats) + ")");
  }
  verdict.reachable_configs = graph.size();
  if (registry.enabled()) {
    registry.add("verify.wellspec.reachable_configs", graph.size());
  }

  const petri::SccDecomposition scc = petri::scc_decompose(graph);
  obs::ScopedSpan consensus_span("verify.wellspec.consensus", "verify");
  // Per-SCC consensus: -1 unseen, 0/1 unanimous so far, 2 mixed.
  std::vector<int> consensus(scc.count, -1);
  for (std::size_t u = 0; u < graph.size(); ++u) {
    const std::size_t component = scc.component[u];
    if (!scc.bottom[component]) continue;
    const petri::ConfigView config = graph.node(u);
    for (std::size_t q = 0; q < config.size(); ++q) {
      if (config[q] == 0) continue;
      const int output = protocol.output(q) ? 1 : 0;
      if (consensus[component] == -1) {
        consensus[component] = output;
      } else if (consensus[component] != output) {
        consensus[component] = 2;
      }
    }
  }
  int extracted = -1;
  for (std::size_t component = 0; component < scc.count; ++component) {
    if (consensus[component] == -1) continue;  // not a bottom SCC
    if (consensus[component] == 2) {
      verdict.detail = "a bottom SCC mixes outputs (no consensus reached)";
      if (registry.enabled()) registry.add("verify.wellspec.unresolved", 1);
      return verdict;
    }
    if (extracted == -1) {
      extracted = consensus[component];
    } else if (extracted != consensus[component]) {
      verdict.detail =
          "bottom SCCs disagree (consensus depends on the schedule)";
      if (registry.enabled()) registry.add("verify.wellspec.unresolved", 1);
      return verdict;
    }
  }
  verdict.value = extracted == 1;
  return verdict;
}

}  // namespace

WellSpecVerdict classify_input(const core::Protocol& protocol,
                               const std::vector<core::Count>& input,
                               const WellSpecOptions& options) {
  return classify_input_on(petri::PetriNet(protocol.net()), protocol, input,
                           options);
}

WellSpecResult check_well_specification_up_to(const core::Protocol& protocol,
                                              core::Count bound,
                                              const WellSpecOptions& options) {
  if (bound < 0) {
    throw std::invalid_argument(
        "check_well_specification_up_to: bound must be >= 0");
  }
  WellSpecResult result;
  const std::size_t arity = protocol.input_arity();
  std::vector<core::Count> input(arity, 0);
  const petri::PetriNet net(protocol.net());
  while (true) {
    result.verdicts.push_back(classify_input_on(net, protocol, input, options));
    // Odometer over [0, bound]^arity, least-significant dimension first
    // (the same enumeration order as verify::check_up_to).
    std::size_t dim = 0;
    while (dim < arity && input[dim] == bound) {
      input[dim] = 0;
      ++dim;
    }
    if (dim == arity) break;
    ++input[dim];
  }
  return result;
}

}  // namespace verify
}  // namespace ppsc
