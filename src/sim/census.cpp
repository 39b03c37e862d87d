#include "sim/census.h"

#include <climits>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace ppsc {
namespace sim {

// kMaxPopulation is exactly the largest n with n(n-1) <= LLONG_MAX.
static_assert(CensusSimulator::kMaxPopulation - 1 <=
              LLONG_MAX / CensusSimulator::kMaxPopulation);
static_assert(CensusSimulator::kMaxPopulation >
              LLONG_MAX / (CensusSimulator::kMaxPopulation + 1));

CensusSimulator::CensusSimulator(const PairRuleTable& table,
                                 const core::Config& initial,
                                 std::uint64_t seed)
    : table_(&table), rng_(seed), counts_(initial) {
  if (initial.size() != table.num_states()) {
    throw std::invalid_argument(
        "CensusSimulator: configuration dimension does not match table");
  }
  for (const core::Count c : initial) {
    if (c < 0) {
      throw std::invalid_argument("CensusSimulator: negative count");
    }
    if (c > kMaxPopulation - population_) {
      throw std::invalid_argument(
          "CensusSimulator: population exceeds kMaxPopulation");
    }
    population_ += c;
  }
  cells_of_state_.assign(table.num_states(), {});
  for (std::uint32_t a = 0; a < table.num_states(); ++a) {
    for (std::uint32_t b : table.partners(a)) {
      const PairRuleTable::Outcome* outcome = table.rule(a, b);
      Cell cell;
      cell.a = a;
      cell.b = b;
      cell.first = outcome->first;
      cell.second = outcome->second;
      const std::uint32_t index = static_cast<std::uint32_t>(cells_.size());
      cells_.push_back(cell);
      cells_of_state_[a].push_back(index);
      if (b != a) cells_of_state_[b].push_back(index);
    }
  }
  touched_.assign(cells_.size(), 0);
  weights_.assign(cells_.size(), 0);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    weights_[i] = cell_weight(cells_[i]);
    enabled_pairs_ += weights_[i];
  }
}

long long CensusSimulator::cell_weight(const Cell& cell) const {
  const long long ca = counts_[cell.a];
  return cell.a == cell.b ? ca * (ca - 1) : ca * counts_[cell.b];
}

void CensusSimulator::rebuild_alias() {
  ++rebuilds_;
  const std::size_t num_cells = cells_.size();
  alias_prob_.assign(num_cells, 1.0);
  alias_of_.resize(num_cells);
  // Vose's O(R) construction over the exact integer weights; the
  // double division only perturbs sampling probabilities by ~1 ulp.
  std::vector<std::uint32_t>& small = scratch_small_;
  std::vector<std::uint32_t>& large = scratch_large_;
  small.clear();
  large.clear();
  std::uint32_t some_enabled = 0;
  const double scale =
      static_cast<double>(num_cells) / static_cast<double>(enabled_pairs_);
  std::vector<double>& scaled = scratch_scaled_;
  scaled.resize(num_cells);
  for (std::uint32_t i = 0; i < num_cells; ++i) {
    alias_of_[i] = i;
    scaled[i] = static_cast<double>(weights_[i]) * scale;
    if (weights_[i] > 0) some_enabled = i;
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    alias_prob_[s] = scaled[s];
    alias_of_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers keep probability 1 -- except a disabled cell stranded by
  // floating-point imbalance, which must still redirect somewhere
  // enabled.
  for (const std::uint32_t s : small) {
    if (weights_[s] == 0) {
      alias_prob_[s] = 0.0;
      alias_of_[s] = some_enabled;
    }
  }
  dirty_ = false;
}

bool CensusSimulator::step() {
  if (enabled_pairs_ == 0) return false;
  // Null draws before the next productive one are geometric with
  // success probability p = W / (n(n-1)); the constructor caps
  // population_ at kMaxPopulation, so the denominator is exact in 64
  // bits.
  const long long ordered_pairs = population_ * (population_ - 1);
  if (enabled_pairs_ < ordered_pairs) {
    const double p = static_cast<double>(enabled_pairs_) /
                     static_cast<double>(ordered_pairs);
    const double u = rng_.unit();
    const double skipped = std::floor(std::log1p(-u) / std::log1p(-p));
    // The cast bound keeps a p ~ 1e-18 tail draw from overflowing.
    const std::uint64_t nulls =
        skipped >= 0x1.0p62 ? (1ull << 62) : static_cast<std::uint64_t>(skipped);
    interactions_ += nulls;
    null_skipped_ += nulls;
  }
  ++interactions_;

  if (dirty_) rebuild_alias();
  const std::uint64_t slot = rng_.below(cells_.size());
  const std::uint32_t chosen =
      rng_.unit() < alias_prob_[slot] ? static_cast<std::uint32_t>(slot)
                                      : alias_of_[slot];
  const Cell& cell = cells_[chosen];
  --counts_[cell.a];
  --counts_[cell.b];
  ++counts_[cell.first];
  ++counts_[cell.second];

  ++stamp_;
  const std::uint32_t changed[4] = {cell.a, cell.b, cell.first, cell.second};
  for (const std::uint32_t q : changed) {
    for (const std::uint32_t index : cells_of_state_[q]) {
      if (touched_[index] == stamp_) continue;
      touched_[index] = stamp_;
      const long long updated = cell_weight(cells_[index]);
      if (updated != weights_[index]) {
        enabled_pairs_ += updated - weights_[index];
        weights_[index] = updated;
        dirty_ = true;
      }
    }
  }
  ++steps_;
  return true;
}

void CensusSimulator::publish_metrics() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (!registry.enabled()) return;
  registry.add("sim.census.runs", 1);
  registry.add("sim.census.productive", steps_);
  registry.add("sim.census.null_skipped", null_skipped_);
  registry.add("sim.census.rebuilds", rebuilds_);
}

}  // namespace sim
}  // namespace ppsc
