// The census sampler: simulates a population protocol from its census
// alone, over the net's transitions, with no agent array. A step fires
// transition t with probability w(t) / W, where w(t), the number of
// agent sets that can fire t (sim/weights.h), is the product of
// C(c_q, k_q) over its pre arcs and W is the sum of the weights. On a
// width-2 net that is the uniform random-pair scheduler conditioned on
// a productive draw (the scheduler tests check it). Two roles:
//  * Pair nets -- every transition moves two agents and no two share a
//    pre multiset, the nets a PairRuleTable compiles. Weights are
//    doubled to ordered-pair counts, so W counts the enabled ordered
//    agent pairs, and the agent array's null draws between productive
//    steps are skipped analytically: their count is geometric with
//    success probability W / (n(n-1)), sampled in O(1) and reported
//    through interactions(). The kernel hands its slow tail to this
//    role (sim/parallel.h).
//  * Every other net (other widths, or transitions sharing a pre
//    multiset): plain weights, no null draws, interactions() == steps().
//
// Sampling is exact integer arithmetic. Transitions are sorted by pre
// multiset (lexicographically over their pre arc lists, and on one
// place the larger count first) and grouped into one row per lowest
// pre place, each row keeping the sum of its weights; on a pair net
// that is the a-major cell order, diagonal first. A step draws
// r = below(W) (after one unit() for the skip, on pair nets while some
// pair is null) and fires the first transition whose weight prefix sum
// exceeds r, scanning the row sums and then that row; a zero weight is
// never drawn. Only transitions whose pre touches a changed place can
// change weight: a per-place dependents index lists them, and each
// changed weight moves its row sum in O(1). None of it depends on the
// population, so 10^9 agents are as cheap as 10^3.
//
// Overflow: the constructor rejects a net and population unless every
// weight and W fit in a long long on every census of n agents:
// W <= s * (sum over widths w of m_w C(n, w)), m_w the most transitions
// sharing one pre multiset of width w, s = 2 on pair nets, else 1 (the
// pre multisets of one width pick disjoint sets of w agents). On a pair
// net that is n(n-1): populations up to kMaxPopulation. Silence is
// exact: silent iff W == 0.

#ifndef PPSC_SIM_CENSUS_H
#define PPSC_SIM_CENSUS_H

#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "petri/petri_net.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ppsc {
namespace sim {

class CensusSimulator {
 public:
  // The pair nets' population limit (see PairRuleTable).
  static constexpr core::Count kMaxPopulation = PairRuleTable::kMaxPopulation;

  // `net` must outlive the sampler; `initial` is a configuration over
  // its places. std::invalid_argument if a count is negative, if some
  // transition consumes nothing or is not conservative, or if the
  // weight bound above passes LLONG_MAX. The sampler draws from `rng`;
  // the seed form is Xoshiro256(seed).
  CensusSimulator(const petri::PetriNet& net, const core::Config& initial,
                  util::Xoshiro256 rng);
  CensusSimulator(const petri::PetriNet& net, const core::Config& initial,
                  std::uint64_t seed)
      : CensusSimulator(net, initial, util::Xoshiro256(seed)) {}

  // Fires one transition (on a pair net, the null draws before it are
  // skipped analytically and accounted to interactions()). Returns
  // false, firing nothing, iff silent.
  bool step();
  // Steps until silent or steps() == max_steps; returns steps().
  std::uint64_t run(std::uint64_t max_steps) {
    while (steps_ < max_steps && step()) {
    }
    return steps_;
  }

  bool silent() const { return total_ == 0; }
  // True on pair nets: ordered-pair weights and the null skip.
  bool pairwise() const { return pair_net_; }
  // Productive interactions so far.
  std::uint64_t steps() const { return steps_; }
  // Raw draws of the equivalent agent-array run, null interactions
  // included (the geometric skip totals plus the productive draws);
  // steps() off pair nets.
  std::uint64_t interactions() const { return interactions_; }
  // Transition weights changed so far, one row-sum update each.
  std::uint64_t weight_updates() const { return weight_updates_; }

  const core::Config& census() const { return counts_; }
  core::Count population() const { return population_; }
  // The total weight W, exact; 0 iff silent. On a pair net, the number
  // of enabled ordered agent pairs.
  long long enabled_pairs() const { return total_; }

  // Adds this run's totals to the global registry (sim.census.*); call
  // once, after the run. No-op while the registry is disabled.
  void publish_metrics() const;

 private:
  // One transition, with its lowest and highest pre places (its pre
  // pair {a, b} on a pair net) and its width.
  struct Entry {
    std::uint32_t transition = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t row = 0;  // index into rows_
    std::uint32_t width = 0;
  };
  // The entries of one lowest pre place, which start at
  // entries_[begin], and their summed weight.
  struct Row {
    long long sum = 0;
    std::uint32_t begin = 0;
  };

  // The entry's weight: the ordered-pair count on pair nets, else the
  // instantiation count.
  template <bool kPairNet>
  long long weight(const Entry& entry) const;
  // Applies the entry's delta and updates the weights it changes.
  template <bool kPairNet>
  void fire(const Entry& fired);
  // The entry with the smallest weight prefix sum above r; needs
  // 0 <= r < total_.
  std::uint32_t find_entry(long long r) const;

  util::Xoshiro256 rng_;
  const petri::PetriNet* net_;
  core::Config counts_;
  core::Count population_ = 0;

  std::vector<Entry> entries_;
  // dependents_[q]: the entries whose pre touches place q, ascending.
  std::vector<std::vector<std::uint32_t>> dependents_;
  std::vector<long long> weights_;
  std::vector<Row> rows_;
  bool pair_net_ = false;
  long long total_ = 0;
  // n(n-1) on pair nets, else 0 (no null draws to skip).
  long long ordered_pairs_ = 0;

  std::uint64_t steps_ = 0;
  std::uint64_t interactions_ = 0;
  std::uint64_t null_skipped_ = 0;
  std::uint64_t weight_updates_ = 0;
};

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_CENSUS_H
