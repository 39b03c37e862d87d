// Census-only scheduler: the alias-table hybrid for small state
// spaces. When the census fits in L1 (states <= ~64), the productive
// chain can be sampled without any agent array at all: conditional on
// drawing a productive interaction, the uniform-pair scheduler fires
// rule cell (a, b) with probability w(a,b) / W where
// w(a,b) = c_a * (c_b - [a == b]) counts the enabled ordered pairs of
// that cell and W is their sum -- so drawing a cell from a Vose alias
// table over the w's and applying its outcome reproduces
// AgentSimulator's productive-step chain *exactly* (not just in
// distribution: it is the same conditional law; the empirical check
// lives with the other scheduler-equivalence tests). The null draws
// AgentSimulator spends between productive steps are skipped
// analytically: their count is geometric with success probability
// W / (n(n-1)), sampled in O(1) and reported through interactions().
//
// Per productive step: O(cells touching the <= 4 changed states)
// integer weight updates plus an O(R) alias rebuild (R = number of
// rule cells) -- entirely independent of the population, which is
// what makes 10^9-agent populations free. Weights are exact 64-bit
// integers (products c_a * c_b and the ordered-pair count n(n-1) stay
// below 2^63 for populations up to kMaxPopulation ~ 3.04e9, the same
// bound AgentSimulator's enabled-pairs accounting lives under; larger
// populations are rejected), so silence detection is exact: silent iff
// W == 0.

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

  // The table must outlive the simulator. `initial` is a configuration
  // over the protocol's states; std::invalid_argument if its population
  // exceeds kMaxPopulation.
  CensusSimulator(const PairRuleTable& table, const core::Config& initial,
                  std::uint64_t seed);

  // Fires one productive interaction (the null draws between it and
  // the previous one are skipped analytically and accounted to
  // interactions()). Returns false, firing nothing, iff silent.
  bool step();

  bool silent() const { return enabled_pairs_ == 0; }
  // Productive interactions so far.
  std::uint64_t steps() const { return steps_; }
  // Raw draws of the equivalent agent-array run, null interactions
  // included (the geometric skip totals plus the productive draws).
  std::uint64_t interactions() const { return interactions_; }
  // Analytically skipped null draws (subset of interactions()).
  std::uint64_t null_skipped() const { return null_skipped_; }
  // Alias-table rebuilds so far (one per productive step that changed
  // any weight; the weight updates themselves are incremental).
  std::uint64_t rebuilds() const { return rebuilds_; }

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
    std::uint32_t b = 0;
    std::uint32_t first = 0;   // successor of a
    std::uint32_t second = 0;  // successor of b
  };

  long long cell_weight(const Cell& cell) const;
  void rebuild_alias();

  const PairRuleTable* table_;
  util::Xoshiro256 rng_;
  core::Config counts_;
  core::Count population_ = 0;

  std::vector<Cell> cells_;
  // cells_of_state_[q]: indices of cells with a == q or b == q.
  std::vector<std::vector<std::uint32_t>> cells_of_state_;
  std::vector<std::uint64_t> touched_;
  std::uint64_t stamp_ = 0;
  std::vector<long long> weights_;
  long long enabled_pairs_ = 0;

  // Vose alias table over cells_, valid while !dirty_. The scratch
  // vectors are members so the per-step rebuild allocates nothing.
  std::vector<double> alias_prob_;
  std::vector<std::uint32_t> alias_of_;
  std::vector<double> scratch_scaled_;
  std::vector<std::uint32_t> scratch_small_;
  std::vector<std::uint32_t> scratch_large_;
  bool dirty_ = true;

  std::uint64_t steps_ = 0;
  std::uint64_t interactions_ = 0;
  std::uint64_t null_skipped_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_CENSUS_H
