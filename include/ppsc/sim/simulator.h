// High-level simulation entry points, built on the two schedulers in
// sim/scheduler.h: run_to_silence drives the census sampler (exact
// silence detection for any conservative net), while
// measure_convergence routes every run through the agent-array kernel
// or the census sampler: on a protocol that compiles to a
// PairRuleTable with few states, the census sampler from 2^16 agents
// and below that the kernel until most draws are null, then the census
// sampler; on any other protocol the census sampler throughout. Steps
// always count *productive* interactions -- for width-2 rules both
// schedulers reproduce the classical uniform random-pair scheduler
// restricted to productive interactions -- and a run is silent when no
// transition is enabled.

#ifndef PPSC_SIM_SIMULATOR_H
#define PPSC_SIM_SIMULATOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/protocol.h"

namespace ppsc {
namespace sim {

// Which scheduler drives a run. kAuto picks by population and state
// count, and hands a small-population run from the kernel to the
// census sampler once its productive fraction collapses (see
// docs/sim-sharding.md for the heuristic); the explicit
// values force a path. kSharded is the agent-array kernel at any shard
// count S, one included; it requires a PairRuleTable, and a protocol
// that does not compile to one runs on the census sampler whatever the
// choice -- both schedulers share the productive step law, so forcing
// is an ablation knob, never a semantic change.
enum class SchedulerChoice {
  kAuto,
  kSharded,
  kCensus,
};

struct RunOptions {
  // Give up (non-converged) after this many productive interactions.
  std::uint64_t max_steps = 20000000;
  // Base seed; run r of a measurement uses seed + r.
  std::uint64_t seed = 0x5eed;
  // Scheduler selection for measure_convergence runs; run_to_silence
  // always uses the census sampler.
  SchedulerChoice scheduler = SchedulerChoice::kAuto;
  // Agent-array kernel only: forces the shard count S. 0 picks it by
  // population: 1 below 2^22 agents, ShardedOptions::kDefaultShards
  // at or above.
  std::size_t shards = 0;
};

struct OutputSummary {
  bool has_one = false;
  bool has_zero = false;

  // All agents output 1 (and there is at least one agent).
  bool exactly_one() const { return has_one && !has_zero; }
  // No agent outputs 1.
  bool subset_of_zero() const { return !has_one; }
  // Every agent agrees with `expected`; vacuously true for the empty
  // population. This is the consensus test measure_convergence scores
  // with, matching verify::check_input's convention that an empty
  // input is correct no matter what the predicate says.
  bool unanimous(bool expected) const {
    return expected ? !has_zero : !has_one;
  }
};

// The shared output-census accounting path: collapses a configuration
// into its output summary. Every scheduler's census() feeds this.
OutputSummary summarize_output(const core::Protocol& protocol,
                               const core::Config& config);

struct SilenceRun {
  bool silent = false;
  std::uint64_t steps = 0;
  core::Config final_config;
  OutputSummary final_output;
};

SilenceRun run_to_silence(const core::Protocol& protocol,
                          const std::vector<core::Count>& input,
                          const RunOptions& options = {});

struct ConvergenceStats {
  std::size_t runs = 0;
  // Runs that reached silence within the step budget.
  std::size_t converged = 0;
  // Converged runs whose consensus matches the predicate.
  std::size_t correct = 0;
  // Over all runs; non-converged runs contribute their step budget.
  double mean_steps = 0.0;
  // Largest observed per-run step count (not the RunOptions::max_steps
  // budget, which bounds it from above).
  double max_steps_observed = 0.0;
};

// Serial convergence sweep: runs `runs` independent simulations with
// seeds options.seed + r and aggregates. Equivalent to the parallel
// sweep in sim/parallel.h with one thread (it is implemented on it).
ConvergenceStats measure_convergence(const core::ConstructedProtocol& cp,
                                     const std::vector<core::Count>& input,
                                     std::size_t runs,
                                     const RunOptions& options = {});

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_SIMULATOR_H
