// Deterministic multi-threaded convergence sweeps.
//
// A sweep of R runs derives per-run seeds as options.seed + r, exactly
// like the serial measure_convergence always has, and stores each
// run's outcome at its run index before aggregating in index order --
// so the statistics are bit-identical for 1 thread and N threads, and
// independent of how the OS interleaves the workers. The runs execute
// on util::parallel_for's persistent pool, the calling thread
// included; a sweep starts no thread of its own, so traced sweeps
// register a bounded number of trace rings. The threads share one
// immutable PairRuleTable: planned_scheduler picks one of the two
// schedulers (the agent-array kernel at S shards / the census sampler)
// per sweep from RunOptions, the population and the state count,
// taking the census sampler whenever the protocol does not compile to
// a pair table. A kAuto run on the one-shard kernel over a table of at
// most 64 states hands off to the census sampler once its productive
// fraction collapses (SchedulerPlan::handoff_pairs), so a run takes
// one of four paths, each counted by its sim.dispatch.* counter:
// kernel, census, count (the census sampler on a protocol without a
// pair table) or handoff; a census already under the floor hands off
// at the kernel's construction barrier, before any draw. Every path
// runs through one driver: run(max_steps), then silent(), steps(),
// census() and publish_metrics().

#ifndef PPSC_SIM_PARALLEL_H
#define PPSC_SIM_PARALLEL_H

#include <cstddef>
#include <vector>

#include "core/protocol.h"
#include "sim/simulator.h"

namespace ppsc {
namespace sim {

// Runs `runs` independent simulations on up to `num_threads` threads
// of util::parallel_for's pool, the caller included (0 = all of them;
// never more than util::parallel_width() or the run count), and
// aggregates their convergence statistics in run-index order.
ConvergenceStats measure_convergence_parallel(
    const core::ConstructedProtocol& cp, const std::vector<core::Count>& input,
    std::size_t runs, const RunOptions& options = {},
    unsigned num_threads = 0);

// A resolved dispatch decision.
struct SchedulerPlan {
  // A kAuto run on the one-shard kernel hands off to the census
  // sampler at the first epoch barrier where fewer than n(n-1) /
  // kHandoffDivisor ordered pairs are enabled: once fewer than one
  // draw in 16 would be productive. The kernel pays about 8.6 ns per
  // draw, productive or not; the census sampler 100-330 ns per
  // productive step, whatever the population, so they break even at
  // productive fractions between 1/12 (Example 4.2) and 1/38
  // (unary_counting(8)). On a 4-vCPU host, one thread, divisors
  // 4 / 8 / 10 / 16 / 32 / 64 took 0.073 / 0.028 / 0.026 / 0.023 /
  // 0.025 / 0.033 s on 150 unary_counting(8) runs at 1000 agents
  // (kernel alone 1.46 s) and 0.89 / 0.84 / 0.84 / 0.99 / 1.58 /
  // 1.43 s on 24 Example 4.2 runs (n = 32, x = 31, 400,000 steps;
  // kernel alone 1.60 s); docs/sim-sharding.md has the rest. Decided
  // from exact integers at a barrier, never from a clock.
  static constexpr long long kHandoffDivisor = 16;

  // kSharded or kCensus; never kAuto.
  SchedulerChoice scheduler = SchedulerChoice::kCensus;
  // Agent slices S of the kSharded kernel (before its max(1, n/2)
  // clamp); 0 on the census path, which keeps no agent array.
  std::size_t shards = 0;
  // The kernel stops at the first barrier with fewer enabled ordered
  // pairs than this, ceil(n(n-1) / kHandoffDivisor), and the census
  // sampler runs the rest of the budget from that barrier's census;
  // 0 = never (forced schedulers, S > 1, tables of more than 64
  // states).
  long long handoff_pairs = 0;
};

// The scheduler, shard count and handoff floor the dispatch heuristic
// selects for one run: resolves options.scheduler (kAuto picks census
// for small-state/large-population runs and the agent-array kernel
// otherwise; every choice is kCensus when `has_table` is false), then
// the kernel's S (options.shards when nonzero, else 1 below 2^22
// agents and ShardedOptions::kDefaultShards at or above), then the
// handoff floor of a kAuto run on the one-shard kernel over a table of
// at most 64 states. Exposed so the heuristic's thresholds are
// unit-testable; measure_convergence routes every run through exactly
// this function.
SchedulerPlan planned_scheduler(const RunOptions& options, bool has_table,
                                std::size_t num_states,
                                core::Count population);

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_PARALLEL_H
