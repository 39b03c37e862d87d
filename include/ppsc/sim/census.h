// Census-only scheduler for small state spaces. When the census fits
// in L1 (states <= ~64), the productive chain can be sampled without
// any agent array at all: conditional on drawing a productive
// interaction, the uniform-pair scheduler fires rule cell (a, b) with
// probability w(a,b) / W where w(a,b) = c_a * (c_b - [a == b]) counts
// the enabled ordered pairs of that cell and W is their sum -- so
// drawing a cell with probability exactly w/W and applying its outcome
// reproduces the agent-array kernel's productive-step chain in law (the
// empirical checks live with the other scheduler-equivalence tests).
// Cells (a, b) and (b, a) fire the same interaction with the outcome
// swapped, so they are kept as one cell {a, b}, a <= b, of weight
// w(a,b) + w(b,a) = 2 c_a c_b. The null draws the agent array spends
// between productive steps are skipped analytically: their count is
// geometric with success probability W / (n(n-1)), sampled in O(1) and
// reported through interactions().
//
// Sampling is exact integer arithmetic: cells are kept in a-major
// order, grouped into one row per state a, and each row keeps the sum
// of its cells' weights. A productive step draws r = below(W) and
// fires the smallest cell whose weight prefix sum exceeds r, found by
// scanning the row sums and then that row's cells. A zero-weight cell
// can never be drawn. Per productive step the RNG supplies one unit()
// for the geometric skip (only while some pair is null) and one
// below(W) for the cell.
//
// Per productive step: O(1) work per changed cell (the cells touching
// the <= 4 states whose counts moved; each moves its weight and its
// row's sum) plus a scan over the rows and one row's cells, at most
// states + R for R rule cells -- entirely independent of the
// population, which is what makes 10^9-agent populations free. On the
// tables the census path serves (<= 64 states) that scan is cheaper
// than the log R updates of a Fenwick tree for each of the tens of
// cells a step can change. Weights are exact 64-bit
// integers (products c_a * c_b and the ordered-pair count n(n-1) stay
// below 2^63 for populations up to kMaxPopulation ~ 3.04e9, the same
// bound the agent-array kernel's enabled-pairs count lives under;
// larger populations are rejected), so silence detection is exact:
// silent iff W == 0.

#ifndef PPSC_SIM_CENSUS_H
#define PPSC_SIM_CENSUS_H

#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ppsc {
namespace sim {

class CensusSimulator {
 public:
  // Largest population n whose ordered-pair count n(n-1) fits in a
  // long long.
  static constexpr core::Count kMaxPopulation = 3037000500LL;

  // The table is read only here. `initial` is a configuration
  // over the protocol's states; std::invalid_argument if its population
  // exceeds kMaxPopulation. The sampler draws from `rng`; the seed form
  // is Xoshiro256(seed).
  CensusSimulator(const PairRuleTable& table, const core::Config& initial,
                  util::Xoshiro256 rng);
  CensusSimulator(const PairRuleTable& table, const core::Config& initial,
                  std::uint64_t seed)
      : CensusSimulator(table, initial, util::Xoshiro256(seed)) {}

  // Fires one productive interaction (the null draws between it and
  // the previous one are skipped analytically and accounted to
  // interactions()). Returns false, firing nothing, iff silent.
  bool step();
  // Steps until silent or steps() == max_steps; returns steps().
  std::uint64_t run(std::uint64_t max_steps) {
    while (steps_ < max_steps && step()) {
    }
    return steps_;
  }

  bool silent() const { return enabled_pairs_ == 0; }
  // Productive interactions so far.
  std::uint64_t steps() const { return steps_; }
  // Raw draws of the equivalent agent-array run, null interactions
  // included (the geometric skip totals plus the productive draws).
  std::uint64_t interactions() const { return interactions_; }
  // Analytically skipped null draws (subset of interactions()).
  std::uint64_t null_skipped() const { return null_skipped_; }
  // Cell weights changed so far, one row-sum update each.
  std::uint64_t weight_updates() const { return weight_updates_; }

  const core::Config& census() const { return counts_; }
  core::Count population() const { return population_; }
  // Number of enabled ordered agent pairs; 0 iff silent. Exact.
  long long enabled_pairs() const { return enabled_pairs_; }

  // Adds this run's totals to the global registry (sim.census.*); call
  // once, after the run. No-op while the registry is disabled.
  void publish_metrics() const;

 private:
  struct Cell {
    std::uint32_t a = 0;
    std::uint32_t b = 0;       // a <= b
    std::uint32_t first = 0;   // successor of a
    std::uint32_t second = 0;  // successor of b
    std::uint32_t row = 0;     // index into rows_
  };
  // The cells of one state a, which start at cells_[begin], and their
  // summed weight.
  struct Row {
    long long sum = 0;
    std::uint32_t begin = 0;
  };

  long long cell_weight(const Cell& cell) const;
  // The cell with the smallest weight prefix sum above r; needs
  // 0 <= r < enabled_pairs_.
  std::uint32_t find_cell(long long r) const;

  util::Xoshiro256 rng_;
  core::Config counts_;
  core::Count population_ = 0;

  std::vector<Cell> cells_;
  // cells_of_state_[q]: indices of cells with a == q or b == q.
  std::vector<std::vector<std::uint32_t>> cells_of_state_;
  std::vector<long long> weights_;
  // One row per state with at least one cell, in a-major order.
  std::vector<Row> rows_;
  long long enabled_pairs_ = 0;

  std::uint64_t steps_ = 0;
  std::uint64_t interactions_ = 0;
  std::uint64_t null_skipped_ = 0;
  std::uint64_t weight_updates_ = 0;
};

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_CENSUS_H
