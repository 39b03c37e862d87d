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

using core::Count;

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

  for (const core::Transition& t : protocol.net().transitions()) {
    if (t.width() != 2) return std::nullopt;
    // Decompose pre and post into ordered state pairs. Width 2 means
    // either one state with count 2 or two states with count 1 each;
    // conservation guarantees the same for post.
    std::uint32_t pre[2];
    std::uint32_t post[2];
    std::size_t num_pre = 0;
    std::size_t num_post = 0;
    for (std::size_t q = 0; q < n; ++q) {
      for (Count k = 0; k < t.pre[q]; ++k) {
        pre[num_pre++] = static_cast<std::uint32_t>(q);
      }
      for (Count k = 0; k < t.post[q]; ++k) {
        post[num_post++] = static_cast<std::uint32_t>(q);
      }
    }
    assert(num_pre == 2 && num_post == 2);
    const auto set_cell = [&table, n](std::uint32_t a, std::uint32_t b,
                                      std::uint32_t c,
                                      std::uint32_t d) -> bool {
      Outcome& cell = table.cells_[a * n + b];
      if (cell.first != kNoRule) {
        // Re-registering the identical outcome is still deterministic
        // (a protocol may list the same transition twice); only a pair
        // mapped to two different outcomes is nondeterministic.
        return cell.first == c && cell.second == d;
      }
      cell.first = c;
      cell.second = d;
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
    : rng_(seed), config_(std::move(initial)) {
  if (config_.size() != protocol.num_states()) {
    throw std::invalid_argument(
        "CountSimulator: configuration dimension does not match protocol");
  }
  for (const core::Transition& t : protocol.net().transitions()) {
    SparseTransition s;
    for (std::size_t q = 0; q < t.pre.size(); ++q) {
      if (t.pre[q] > 0) s.pre.emplace_back(q, t.pre[q]);
      if (t.post[q] != t.pre[q]) s.delta.emplace_back(q, t.post[q] - t.pre[q]);
    }
    transitions_.push_back(std::move(s));
  }
  // Incremental weight cache: a fired transition only changes the
  // counts on its delta places, so only transitions whose pre touches
  // one of those places can change weight.
  dependents_.assign(protocol.num_states(), {});
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    for (const auto& need : transitions_[i].pre) {
      dependents_[need.first].push_back(i);
    }
  }
  touched_.assign(transitions_.size(), 0);
  weights_.assign(transitions_.size(), 0.0);
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    weights_[i] = instance_weight(transitions_[i]);
    total_ += weights_[i];
    if (weights_[i] > 0.0) ++num_active_;
  }
  peak_total_ = total_;
}

// Number of distinct agent sets firing `t` in the current
// configuration: the product of C(config[q], pre[q]) (see
// sim/weights.h for the shared per-place factor).
double CountSimulator::instance_weight(const SparseTransition& t) const {
  double weight = 1.0;
  for (const auto& need : t.pre) {
    const double factor =
        binomial_instances<double>(config_[need.first], need.second);
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
    for (const SparseTransition& t : transitions_) {
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
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    if (weights_[i] == 0.0) continue;
    chosen = i;
    pick -= weights_[i];
    if (pick < 0.0) break;
  }
  for (const auto& change : transitions_[chosen].delta) {
    config_[change.first] += change.second;
  }
  ++stamp_;
  for (const auto& change : transitions_[chosen].delta) {
    for (std::size_t dependent : dependents_[change.first]) {
      if (touched_[dependent] == stamp_) continue;
      touched_[dependent] = stamp_;
      ++weight_updates_;
      total_ -= weights_[dependent];
      if (weights_[dependent] > 0.0) --num_active_;
      weights_[dependent] = instance_weight(transitions_[dependent]);
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
