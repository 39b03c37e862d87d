// Scheduler architecture for the sim subsystem.
//
// Two schedulers drive a protocol's interaction dynamics and share one
// census/output accounting path (see summarize_output in
// sim/simulator.h); sim/parallel.h's planned_scheduler dispatches
// between them:
//
//  * ShardedSimulator (sim/sharded.h) -- the agent-array kernel: the
//    classical uniform-random-pair scheduler over an explicit agent
//    array, in S contiguous slices (S = 1 below 2^22 agents). Each
//    draw picks an ordered pair of distinct agents uniformly at random
//    and fires the width-2 rule their states enable, if any; silence
//    is checked exactly at epoch barriers. It compiles against the
//    PairRuleTable below, so it requires a deterministic pairwise net.
//  * CensusSimulator (sim/census.h) -- the count-level sampler: each
//    step fires one enabled transition with probability proportional
//    to its number of distinct agent instantiations, from the census
//    alone. Works for any conservative net (arbitrary width); on the
//    nets a PairRuleTable compiles it also skips the kernel's null
//    draws analytically.
//
// Conditional on drawing a productive interaction, the agent-array
// scheduler selects transition t with probability weight(t) / total --
// exactly the census sampler's law -- so both productive-step chains
// are identical in distribution on deterministic pairwise nets
// (tests/test_scheduler.cpp checks this empirically). Both report
// progress in *productive* interactions via steps(), making their
// convergence statistics directly comparable, and both expose
// run(max_steps), which stops exactly at the budget (up to the sharded
// epoch overshoot at S > 1).

#ifndef PPSC_SIM_SCHEDULER_H
#define PPSC_SIM_SCHEDULER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/protocol.h"

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
  // Largest population n whose ordered-pair count n(n-1) fits in a
  // long long, so enabled_pairs() is exact: the population limit of
  // the agent-array kernel and of the census sampler on pair nets.
  static constexpr core::Count kMaxPopulation = 3037000500LL;

  struct Outcome {
    std::uint32_t first = kNoRule;   // successor of the first agent
    std::uint32_t second = kNoRule;  // successor of the second agent
  };

  // Compiles `protocol` into a pair table. Returns std::nullopt when the
  // net is not deterministic pairwise: some transition has width != 2,
  // or two transitions share a pre pair (ProtocolBuilder::build() keeps
  // one copy of an identical transition, so those outcomes differ), or
  // when the protocol has more than kMaxStates states, where the n^2
  // table is too large. Dispatch then runs the census sampler, whose
  // count law is the same productive-step law.
  static std::optional<PairRuleTable> build(const core::Protocol& protocol);

  std::size_t num_states() const { return num_states_; }

  // The outcome for an ordered state pair, or nullptr when the pair has
  // no rule (a null interaction).
  const Outcome* rule(std::uint32_t a, std::uint32_t b) const {
    const Outcome& cell = cells_[a * num_states_ + b];
    return cell.first == kNoRule ? nullptr : &cell;
  }

  // States b with a rule against a (including b == a), ascending. The
  // agent-array kernel's silence count walks these.
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

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_SCHEDULER_H
