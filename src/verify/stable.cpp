#include "verify/stable.h"

#include <cstdint>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

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

}  // namespace

BottomSccs bottom_sccs(const core::Protocol& protocol,
                       const core::Config& initial, std::size_t max_configs,
                       const char* caller) {
  // The limit mirrors explore's truncation boundary, so a graph of
  // exactly max_configs nodes is still accepted and nothing is recorded
  // past the cap.
  petri::ExploreLimits limits;
  limits.max_nodes = max_configs;
  BottomSccs out;
  {
    obs::ScopedSpan span("verify.explore", "verify");
    out.graph = petri::explore(protocol.net(), {petri::Config(initial)},
                               limits);
  }
  if (out.graph.truncated) {
    throw std::runtime_error(
        std::string(caller) + ": reachability graph exceeds " +
        std::to_string(max_configs) + " configurations (explored " +
        petri::describe(out.graph.stats) + ")");
  }
  {
    obs::ScopedSpan span("verify.scc", "verify");
    out.scc = petri::scc_decompose(out.graph);
  }
  obs::ScopedSpan span("verify.consensus", "verify");
  out.consensus.assign(out.scc.count, -1);
  for (std::size_t u = 0; u < out.graph.size(); ++u) {
    const std::size_t component = out.scc.component[u];
    if (!out.scc.bottom[component]) continue;
    int& consensus = out.consensus[component];
    const petri::ConfigView config = out.graph.node(u);
    for (std::size_t q = 0; q < config.size(); ++q) {
      if (config[q] == 0) continue;
      const int output = protocol.output(q) ? 1 : 0;
      if (consensus == -1) {
        consensus = output;
      } else if (consensus != output) {
        consensus = 2;
      }
    }
  }
  return out;
}

Verdict check_input(const core::Protocol& protocol,
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
  const BottomSccs bottom = bottom_sccs(protocol, initial, options.max_configs,
                                        "verify::check_input");
  const petri::ReachabilityGraph& graph = bottom.graph;
  verdict.reachable_configs = graph.size();

  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("verify.inputs", 1);
    registry.add("verify.reachable_configs", graph.size());
  }
  // A bottom SCC whose consensus is not the expected value holds the
  // offending configurations; the first one in node order is reported.
  std::uint64_t bottom_configs = 0;
  for (std::size_t u = 0; u < graph.size(); ++u) {
    const int consensus = bottom.consensus[bottom.scc.component[u]];
    if (consensus == -1) continue;
    ++bottom_configs;
    if (consensus == (expected ? 1 : 0)) continue;
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

CheckResult check_up_to(const core::Protocol& protocol,
                        const core::Predicate& predicate, core::Count bound,
                        const CheckOptions& options) {
  if (bound < 0) {
    throw std::invalid_argument("check_up_to: bound must be >= 0");
  }
  CheckResult result;
  for_each_point<std::vector<Count>>(
      protocol.input_arity(), bound, [&](const std::vector<Count>& input) {
        result.verdicts.push_back(
            check_input(protocol, predicate, input, options));
        return true;
      });
  return result;
}

}  // namespace verify
}  // namespace ppsc
