#include "sim/census.h"

#include <algorithm>
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
                                 util::Xoshiro256 rng)
    : rng_(rng), counts_(initial) {
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
    const std::uint32_t row = static_cast<std::uint32_t>(rows_.size());
    const std::uint32_t begin = static_cast<std::uint32_t>(cells_.size());
    for (std::uint32_t b : table.partners(a)) {
      if (b < a) continue;  // (b, a) is the same interaction as (a, b)
      const PairRuleTable::Outcome* outcome = table.rule(a, b);
      Cell cell;
      cell.a = a;
      cell.b = b;
      cell.first = outcome->first;
      cell.second = outcome->second;
      cell.row = row;
      const std::uint32_t index = static_cast<std::uint32_t>(cells_.size());
      cells_.push_back(cell);
      cells_of_state_[a].push_back(index);
      if (b != a) cells_of_state_[b].push_back(index);
    }
    if (cells_.size() != begin) rows_.push_back({0, begin});
  }
  weights_.assign(cells_.size(), 0);
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    weights_[i] = cell_weight(cells_[i]);
    rows_[cells_[i].row].sum += weights_[i];
    enabled_pairs_ += weights_[i];
  }
}

long long CensusSimulator::cell_weight(const Cell& cell) const {
  const long long ca = counts_[cell.a];
  return cell.a == cell.b ? ca * (ca - 1) : 2 * ca * counts_[cell.b];
}

std::uint32_t CensusSimulator::find_cell(long long r) const {
  // The smallest cell whose weight prefix sum exceeds r: skip whole
  // rows while r reaches past their sum, then cells of the row it
  // lands in. A zero-weight row or cell never ends either scan.
  const Row* row = rows_.data();
  while (r >= row->sum) {
    r -= row->sum;
    ++row;
  }
  std::uint32_t cell = row->begin;
  while (r >= weights_[cell]) {
    r -= weights_[cell];
    ++cell;
  }
  return cell;
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

  const Cell& cell = cells_[find_cell(static_cast<long long>(
      rng_.below(static_cast<std::uint64_t>(enabled_pairs_))))];
  --counts_[cell.a];
  --counts_[cell.b];
  ++counts_[cell.first];
  ++counts_[cell.second];

  // Only cells touching a state whose count moved can change weight.
  // A cell touching two such states is visited twice; the second visit
  // finds its weight already current.
  const std::uint32_t changed[4] = {cell.a, cell.b, cell.first, cell.second};
  for (int k = 0; k < 4; ++k) {
    const std::uint32_t q = changed[k];
    const int moved = (q == cell.first) + (q == cell.second) -
                      (q == cell.a) - (q == cell.b);
    if (moved == 0 || std::find(changed, changed + k, q) != changed + k) {
      continue;
    }
    for (const std::uint32_t index : cells_of_state_[q]) {
      const long long updated = cell_weight(cells_[index]);
      if (updated != weights_[index]) {
        const long long delta = updated - weights_[index];
        enabled_pairs_ += delta;
        weights_[index] = updated;
        rows_[cells_[index].row].sum += delta;
        ++weight_updates_;
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
  registry.add("sim.census.weight_updates", weight_updates_);
}

}  // namespace sim
}  // namespace ppsc
