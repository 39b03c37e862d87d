// Scheduler architecture for the sim subsystem.
//
// Three interchangeable schedulers drive a protocol's interaction
// dynamics and share one census/output accounting path (see
// summarize_output in sim/simulator.h); sim/parallel.h's
// planned_scheduler dispatches among them:
//
//  * ShardedSimulator (sim/sharded.h) -- the agent-array kernel: the
//    classical uniform-random-pair scheduler over an explicit agent
//    array, in S contiguous slices (S = 1 below 2^22 agents). Each
//    draw picks an ordered pair of distinct agents uniformly at random
//    and fires the width-2 rule their states enable, if any; silence
//    is checked exactly at epoch barriers.
//  * CensusSimulator (sim/census.h) -- the small-state sampler that
//    draws the productive chain from the census alone, skipping null
//    draws analytically.
//  * CountSimulator (below) -- the instantiation-weighted transition
//    sampler: each step fires one enabled transition with probability
//    proportional to its number of distinct agent instantiations.
//    Works for any conservative net (arbitrary width), at a per-step
//    cost in the number of transitions and the population-independent
//    count vector.
//
// The first two compile against the PairRuleTable below, so they
// require a deterministic pairwise net. Conditional on drawing a
// productive interaction, the agent-array scheduler selects transition
// t with probability weight(t) / total -- exactly the count
// scheduler's law -- so all three productive-step chains are identical
// in distribution on deterministic pairwise nets (tests/test_scheduler.cpp
// checks this empirically). All report progress in *productive*
// interactions via steps(), making their convergence statistics
// directly comparable, and all expose run(max_steps), which stops
// exactly at the budget (up to the sharded epoch overshoot at S > 1).

#ifndef PPSC_SIM_SCHEDULER_H
#define PPSC_SIM_SCHEDULER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/protocol.h"
#include "util/rng.h"

namespace ppsc {
namespace sim {

// Width-2 rules compiled into a dense state x state lookup: cell (a, b)
// holds the successor states of an ordered agent pair in states (a, b),
// or kNoRule. The table is symmetric as a multiset map -- a rule with
// pre {a, b} fills both (a, b) and (b, a), with the outcome swapped --
// so the ordered uniform pair draw implements the unordered interaction.
class PairRuleTable {
 public:
  static constexpr std::uint32_t kNoRule = 0xffffffffu;
  // Largest state count build() compiles: the dense table holds
  // kMaxStates^2 = 16.7M cells (128 MiB).
  static constexpr std::size_t kMaxStates = 4096;

  struct Outcome {
    std::uint32_t first = kNoRule;   // successor of the first agent
    std::uint32_t second = kNoRule;  // successor of the second agent
  };

  // Compiles `protocol` into a pair table. Returns std::nullopt when the
  // net is not deterministic pairwise: some transition has width != 2,
  // or two transitions share a pre pair *with different outcomes* (a
  // duplicated identical transition is still deterministic and compiles;
  // the count scheduler remains the fallback for the genuinely
  // nondeterministic cases, with the same productive-step law), or
  // when the protocol has more than kMaxStates states, where the n^2
  // table is too large; dispatch then takes the count path the same
  // way.
  static std::optional<PairRuleTable> build(const core::Protocol& protocol);

  std::size_t num_states() const { return num_states_; }

  // The outcome for an ordered state pair, or nullptr when the pair has
  // no rule (a null interaction).
  const Outcome* rule(std::uint32_t a, std::uint32_t b) const {
    const Outcome& cell = cells_[a * num_states_ + b];
    return cell.first == kNoRule ? nullptr : &cell;
  }

  // States b with a rule against a (including b == a), ascending. The
  // agent-array kernel's silence count and the census sampler's cell
  // list walk these.
  const std::vector<std::uint32_t>& partners(std::size_t a) const {
    return partners_[a];
  }

  // Ordered pairs of distinct agents whose states have a rule, in a
  // population with census `counts`; 0 iff the census is silent. The
  // agent-array kernel's silence test and the kAuto handoff floor
  // (sim/parallel.h) read this.
  long long enabled_pairs(const core::Config& counts) const;

 private:
  std::size_t num_states_ = 0;
  std::vector<Outcome> cells_;  // num_states^2, row-major
  std::vector<std::vector<std::uint32_t>> partners_;
};

// Instantiation-weighted transition sampler with the incremental
// weight cache (only transitions whose pre touches the fired delta are
// recomputed; silence is detected from the exact per-transition
// weights, never the drift-prone accumulated total).
//
// Reads the protocol's compiled net directly, so `protocol` must
// outlive the simulator.
class CountSimulator {
 public:
  CountSimulator(const core::Protocol& protocol, core::Config initial,
                 std::uint64_t seed);

  // Fires one enabled transition, weighted by instantiation count.
  // Returns false (and fires nothing) iff the configuration is silent.
  bool step();
  // Steps until silent or steps() == max_steps; returns steps().
  std::uint64_t run(std::uint64_t max_steps) {
    while (steps_ < max_steps && step()) {
    }
    return steps_;
  }

  bool silent() const { return num_active_ == 0; }
  std::uint64_t steps() const { return steps_; }
  const core::Config& census() const { return config_; }
  // Incremental weight-cache recomputations performed so far. Counted
  // unconditionally: one increment next to a binomial recompute is far
  // below measurement noise on this scheduler.
  std::uint64_t weight_updates() const { return weight_updates_; }

  // Adds this run's totals to the global registry (sim.count.*); call
  // once, after the run. No-op while the registry is disabled.
  void publish_metrics() const;

 private:
  double instance_weight(std::size_t t) const;

  util::Xoshiro256 rng_;
  core::Config config_;
  // The protocol's net: sparse pre lists for the weights, sparse delta
  // lists for firing.
  const petri::PetriNet* net_;
  // dependents_[q]: transitions whose pre touches state q.
  std::vector<std::vector<std::size_t>> dependents_;
  std::vector<std::uint64_t> touched_;
  std::uint64_t stamp_ = 0;
  std::vector<double> weights_;
  double total_ = 0.0;
  double peak_total_ = 0.0;  // largest total since the last rebuild
  std::size_t num_active_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t weight_updates_ = 0;
};

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_SCHEDULER_H
