#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "sim/weights.h"

namespace ppsc {
namespace sim {

// ---------------------------------------------------------------------------
// PairRuleTable
// ---------------------------------------------------------------------------

std::optional<PairRuleTable> PairRuleTable::build(
    const core::Protocol& protocol) {
  const std::size_t n = protocol.num_states();
  if (n > kMaxStates) return std::nullopt;
  PairRuleTable table;
  table.num_states_ = n;
  table.cells_.assign(n * n, Outcome{});
  table.partners_.assign(n, {});

  for (const petri::Transition& t : protocol.net().transitions()) {
    const std::optional<core::PairRule> rule = core::pair_rule(t);
    if (!rule) return std::nullopt;
    const auto& [pre, post] = *rule;
    const auto set_cell = [&table, n](std::size_t a, std::size_t b,
                                      std::size_t c, std::size_t d) -> bool {
      Outcome& cell = table.cells_[a * n + b];
      if (cell.first != kNoRule) {
        // Re-registering the identical outcome is still deterministic
        // (a protocol may list the same transition twice); only a pair
        // mapped to two different outcomes is nondeterministic.
        return cell.first == c && cell.second == d;
      }
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

// ---------------------------------------------------------------------------
// CountSimulator
// ---------------------------------------------------------------------------

namespace {

// Rebuilding the exact weight sum every so often caps the accumulated
// +=/-= rounding drift: between rebuilds it stays below
// ~interval * num_transitions * eps relative to the largest total of
// the window, far inside the debug-assert tolerance in step().
constexpr std::uint64_t kRebuildInterval = 1024;

}  // namespace

CountSimulator::CountSimulator(const core::Protocol& protocol,
                               core::Config initial, std::uint64_t seed)
    : rng_(seed), config_(std::move(initial)), net_(&protocol.net()) {
  if (config_.size() != protocol.num_states()) {
    throw std::invalid_argument(
        "CountSimulator: configuration dimension does not match protocol");
  }
  // Incremental weight cache: a fired transition only changes the
  // counts on its delta places, so only transitions whose pre touches
  // one of those places can change weight.
  const std::size_t m = net_->num_transitions();
  dependents_.assign(protocol.num_states(), {});
  for (std::size_t t = 0; t < m; ++t) {
    for (const petri::Arc& need : net_->pre(t)) {
      dependents_[need.place].push_back(t);
    }
  }
  touched_.assign(m, 0);
  weights_.assign(m, 0.0);
  for (std::size_t t = 0; t < m; ++t) {
    weights_[t] = instance_weight(t);
    total_ += weights_[t];
    if (weights_[t] > 0.0) ++num_active_;
  }
  peak_total_ = total_;
}

// Number of distinct agent sets firing transition t in the current
// configuration: the product of C(config[q], pre[q]) (see
// sim/weights.h for the shared per-place factor).
double CountSimulator::instance_weight(std::size_t t) const {
  double weight = 1.0;
  for (const petri::Arc& need : net_->pre(t)) {
    const double factor =
        binomial_instances<double>(config_[need.place], need.count);
    if (factor == 0.0) return 0.0;
    weight *= factor;
  }
  return weight;
}

bool CountSimulator::step() {
#ifndef NDEBUG
  {
    // Binomial weights of width >= 3 divide (by 3, 5, ...) and are not
    // exactly representable, so the incremental total can drift by
    // ~1 ulp per update. Drift scales with the largest total the
    // incremental updates ever saw, not with the current (possibly
    // much smaller) sum -- hence the peak-relative tolerance. Silence
    // is detected from the exact per-transition weights (zero is
    // exact), never from the accumulated total.
    double recomputed = 0.0;
    for (std::size_t t = 0; t < weights_.size(); ++t) {
      recomputed += instance_weight(t);
    }
    assert(std::abs(total_ - recomputed) <= 1e-9 * std::max(1.0, peak_total_));
  }
#endif
  if (num_active_ == 0) return false;
  double pick = rng_.unit() * total_;
  // Rounding can leave pick barely non-negative after the last positive
  // weight; never fall through to a disabled transition.
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    if (weights_[i] == 0.0) continue;
    chosen = i;
    pick -= weights_[i];
    if (pick < 0.0) break;
  }
  const util::Span<petri::Arc> delta = net_->delta(chosen);
  for (const petri::Arc& change : delta) {
    config_[change.place] += change.count;
  }
  ++stamp_;
  for (const petri::Arc& change : delta) {
    for (std::size_t dependent : dependents_[change.place]) {
      if (touched_[dependent] == stamp_) continue;
      touched_[dependent] = stamp_;
      ++weight_updates_;
      total_ -= weights_[dependent];
      if (weights_[dependent] > 0.0) --num_active_;
      weights_[dependent] = instance_weight(dependent);
      total_ += weights_[dependent];
      if (weights_[dependent] > 0.0) ++num_active_;
    }
  }
  peak_total_ = std::max(peak_total_, total_);
  ++steps_;
  if (steps_ % kRebuildInterval == 0) {
    total_ = 0.0;
    for (double w : weights_) total_ += w;
    peak_total_ = total_;
  }
  return true;
}

void CountSimulator::publish_metrics() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (!registry.enabled()) return;
  registry.add("sim.count.runs", 1);
  registry.add("sim.count.productive", steps_);
  registry.add("sim.count.weight_updates", weight_updates_);
}

}  // namespace sim
}  // namespace ppsc
