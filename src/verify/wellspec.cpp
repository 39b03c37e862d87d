#include "verify/wellspec.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "verify/stable.h"

namespace ppsc {
namespace verify {

WellSpecVerdict classify_input(const core::Protocol& protocol,
                               const std::vector<core::Count>& input,
                               const CheckOptions& options) {
  obs::ScopedSpan span("verify.wellspec", "verify");
  WellSpecVerdict verdict;
  verdict.input = input;

  const core::Config initial = protocol.initial_config(input);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) registry.add("verify.wellspec.inputs", 1);
  if (core::Protocol::population(initial) == 0) {
    // Empty population: computes 0 by convention (see wellspec.h).
    verdict.value = false;
    verdict.reachable_configs = 1;
    return verdict;
  }

  const BottomSccs bottom = bottom_sccs(protocol, initial, options.max_configs,
                                        "verify::classify_input");
  verdict.reachable_configs = bottom.graph.size();
  if (registry.enabled()) {
    registry.add("verify.wellspec.reachable_configs", bottom.graph.size());
  }
  int extracted = -1;
  for (const int consensus : bottom.consensus) {
    if (consensus == -1) continue;  // not a bottom SCC
    if (consensus == 2) {
      verdict.detail = "a bottom SCC mixes outputs (no consensus reached)";
      if (registry.enabled()) registry.add("verify.wellspec.unresolved", 1);
      return verdict;
    }
    if (extracted == -1) {
      extracted = consensus;
    } else if (extracted != consensus) {
      verdict.detail =
          "bottom SCCs disagree (consensus depends on the schedule)";
      if (registry.enabled()) registry.add("verify.wellspec.unresolved", 1);
      return verdict;
    }
  }
  verdict.value = extracted == 1;
  return verdict;
}

WellSpecResult check_well_specification_up_to(const core::Protocol& protocol,
                                              core::Count bound,
                                              const CheckOptions& options) {
  if (bound < 0) {
    throw std::invalid_argument(
        "check_well_specification_up_to: bound must be >= 0");
  }
  WellSpecResult result;
  // The same sweep as verify::check_up_to.
  result.verdicts = map_points<WellSpecVerdict>(
      protocol.input_arity(), bound,
      [&](const std::vector<core::Count>& input) {
        return classify_input(protocol, input, options);
      });
  return result;
}

}  // namespace verify
}  // namespace ppsc
