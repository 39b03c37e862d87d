#include "verify/stable.h"

#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/reachability.h"

namespace ppsc {
namespace verify {

namespace {

using core::Config;
using core::Count;

std::string render_config(const core::Protocol& protocol,
                          petri::ConfigView config) {
  std::string out = "{";
  bool first = true;
  for (std::size_t q = 0; q < config.size(); ++q) {
    if (config[q] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += protocol.state_name(q) + ":" + std::to_string(config[q]);
  }
  return out + "}";
}

// check_input over a net compiled once by the caller, so check_up_to
// builds the protocol's petri::PetriNet (and its enabledness index) once
// for the whole odometer instead of once per input.
Verdict check_input_on(const petri::PetriNet& net,
                       const core::Protocol& protocol,
                       const core::Predicate& predicate,
                       const std::vector<core::Count>& input,
                       const CheckOptions& options) {
  obs::ScopedTimer timer("verify");
  obs::ScopedSpan span("verify", "verify");
  Verdict verdict;
  verdict.input = input;

  const Config initial = protocol.initial_config(input);
  if (core::Protocol::population(initial) == 0) {
    verdict.ok = true;
    verdict.reachable_configs = 1;
    verdict.detail = "empty population (vacuous)";
    return verdict;
  }
  const bool expected = predicate(input);

  // The (finite, by conservation) reachability graph and its SCCs come
  // from the shared petri engines; the limit check mirrors explore's
  // truncation boundary, so a graph of exactly max_configs nodes is
  // still accepted and nothing is recorded past the cap.
  petri::ExploreLimits limits;
  limits.max_nodes = options.max_configs;
  const petri::ReachabilityGraph graph = [&] {
    obs::ScopedSpan explore_span("verify.explore", "verify");
    return petri::explore(net, {petri::Config(initial)}, limits);
  }();
  if (graph.truncated) {
    throw std::runtime_error(
        "verify::check_input: reachability graph exceeds " +
        std::to_string(options.max_configs) + " configurations (explored " +
        petri::describe(graph.stats) + ")");
  }
  verdict.reachable_configs = graph.size();

  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("verify.inputs", 1);
    registry.add("verify.reachable_configs", graph.size());
  }
  std::uint64_t bottom_configs = 0;
  const petri::SccDecomposition scc = [&graph] {
    obs::ScopedSpan scc_span("verify.scc", "verify");
    return petri::scc_decompose(graph);
  }();
  obs::ScopedSpan unanimity_span("verify.unanimity", "verify");
  for (std::size_t u = 0; u < graph.size(); ++u) {
    if (!scc.bottom[scc.component[u]]) continue;
    ++bottom_configs;
    const petri::ConfigView config = graph.node(u);
    for (std::size_t q = 0; q < config.size(); ++q) {
      if (config[q] > 0 && protocol.output(q) != expected) {
        verdict.ok = false;
        verdict.detail = "config " + render_config(protocol, config) +
                         " lies in a bottom SCC but state '" +
                         protocol.state_name(q) + "' outputs " +
                         (expected ? "0" : "1") + " (expected consensus " +
                         (expected ? "1" : "0") + ")";
        registry.add("verify.bottom_configs", bottom_configs);
        registry.add("verify.failures", 1);
        return verdict;
      }
    }
  }
  verdict.ok = true;
  registry.add("verify.bottom_configs", bottom_configs);
  return verdict;
}

}  // namespace

Verdict check_input(const core::Protocol& protocol,
                    const core::Predicate& predicate,
                    const std::vector<core::Count>& input,
                    const CheckOptions& options) {
  return check_input_on(petri::PetriNet(protocol.net()), protocol, predicate,
                        input, options);
}

CheckResult check_up_to(const core::Protocol& protocol,
                        const core::Predicate& predicate, core::Count bound,
                        const CheckOptions& options) {
  if (bound < 0) {
    throw std::invalid_argument("check_up_to: bound must be >= 0");
  }
  CheckResult result;
  const std::size_t arity = protocol.input_arity();
  std::vector<core::Count> input(arity, 0);
  const petri::PetriNet net(protocol.net());
  while (true) {
    result.verdicts.push_back(
        check_input_on(net, protocol, predicate, input, options));
    // Odometer over [0, bound]^arity.
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
