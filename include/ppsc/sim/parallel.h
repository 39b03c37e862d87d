// Deterministic multi-threaded convergence sweeps.
//
// A sweep of R runs derives per-run seeds as options.seed + r, exactly
// like the serial measure_convergence always has, and stores each
// run's outcome at its run index before aggregating in index order --
// so the statistics are bit-identical for 1 thread and N threads, and
// independent of how the OS interleaves the workers. Worker threads
// share one immutable PairRuleTable: planned_scheduler picks one of
// the three scheduler paths (the agent-array kernel at S shards /
// census / count) per sweep from RunOptions, the population and the
// state count, degrading to the count scheduler whenever the protocol
// does not compile to a pair table. Every path runs through one
// driver: run(max_steps), then silent(), steps(), census() and
// publish_metrics().

#ifndef PPSC_SIM_PARALLEL_H
#define PPSC_SIM_PARALLEL_H

#include <cstddef>
#include <vector>

#include "core/protocol.h"
#include "sim/simulator.h"

namespace ppsc {
namespace sim {

// Runs `runs` independent simulations across `num_threads` worker
// threads (0 = one per hardware thread, capped at the run count) and
// aggregates their convergence statistics in run-index order.
ConvergenceStats measure_convergence_parallel(
    const core::ConstructedProtocol& cp, const std::vector<core::Count>& input,
    std::size_t runs, const RunOptions& options = {},
    unsigned num_threads = 0);

// A resolved dispatch decision.
struct SchedulerPlan {
  // kSharded, kCensus or kCount; never kAuto.
  SchedulerChoice scheduler = SchedulerChoice::kCount;
  // Agent slices S of the kSharded kernel (before its max(1, n/2)
  // clamp); 0 on the census and count paths, which keep no agent
  // array.
  std::size_t shards = 0;
};

// The scheduler and shard count the dispatch heuristic selects for one
// run: resolves options.scheduler (kAuto picks census for small-state/
// large-population runs and the agent-array kernel otherwise; every
// table-based choice degrades to kCount when `has_table` is false),
// then the kernel's S (options.shards when nonzero, else 1 below 2^22
// agents and ShardedOptions::kDefaultShards at or above). Exposed so
// the heuristic's thresholds are unit-testable; measure_convergence
// routes every run through exactly this function.
SchedulerPlan planned_scheduler(const RunOptions& options, bool has_table,
                                std::size_t num_states,
                                core::Count population);

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_PARALLEL_H
