#include "sim/scheduler.h"

namespace ppsc {
namespace sim {

std::optional<PairRuleTable> PairRuleTable::build(
    const core::Protocol& protocol) {
  const std::size_t n = protocol.num_states();
  if (n > kMaxStates) return std::nullopt;
  PairRuleTable table;
  table.num_states_ = n;
  table.cells_.assign(n * n, Outcome{});
  table.partners_.assign(n, {});

  for (std::size_t t = 0; t < protocol.net().num_transitions(); ++t) {
    const std::optional<core::PairRule> rule =
        core::pair_rule(protocol.net(), t);
    if (!rule) return std::nullopt;
    const auto& [pre, post] = *rule;
    const auto set_cell = [&table, n](std::size_t a, std::size_t b,
                                      std::size_t c, std::size_t d) -> bool {
      Outcome& cell = table.cells_[a * n + b];
      // build() keeps one copy of an identical transition, so a
      // second rule on an occupied cell has a different outcome.
      if (cell.first != kNoRule) return false;
      cell.first = static_cast<std::uint32_t>(c);
      cell.second = static_cast<std::uint32_t>(d);
      return true;
    };
    if (!set_cell(pre[0], pre[1], post[0], post[1])) return std::nullopt;
    if (pre[0] != pre[1] &&
        !set_cell(pre[1], pre[0], post[1], post[0])) {
      return std::nullopt;
    }
  }

  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (table.cells_[a * n + b].first != kNoRule) {
        table.partners_[a].push_back(static_cast<std::uint32_t>(b));
      }
    }
  }
  return table;
}

long long PairRuleTable::enabled_pairs(const core::Config& counts) const {
  long long pairs = 0;
  for (std::size_t q = 0; q < num_states_; ++q) {
    // Counts each enabled ordered cell exactly once: cell (a, b) is
    // visited from row a only.
    for (const std::uint32_t b : partners_[q]) {
      pairs += q == b ? counts[q] * (counts[q] - 1) : counts[q] * counts[b];
    }
  }
  return pairs;
}

}  // namespace sim
}  // namespace ppsc
