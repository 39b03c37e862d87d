#include "sim/parallel.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/census.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace ppsc {
namespace sim {

namespace {

struct RunOutcome {
  bool silent = false;
  std::uint64_t steps = 0;
  OutputSummary output;
};

// The path a run took; each run adds 1 to one sim.dispatch.* counter.
// kCount: the census sampler on a protocol without a pair table.
enum class Path { kKernel, kCensus, kCount, kHandoff };

void publish_dispatch(Path path) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (!registry.enabled()) return;
  switch (path) {
    case Path::kKernel:
      registry.add("sim.dispatch.kernel", 1);
      break;
    case Path::kCensus:
      registry.add("sim.dispatch.census", 1);
      break;
    case Path::kCount:
      registry.add("sim.dispatch.count", 1);
      break;
    case Path::kHandoff:
      registry.add("sim.dispatch.handoff", 1);
      break;
  }
}

// The one run driver's tail, after run(max_steps): every scheduler
// exposes silent(), census() and publish_metrics(); `steps` is the
// run's productive step count.
template <typename Simulator>
RunOutcome finish(const Simulator& simulator, const core::Protocol& protocol,
                  std::uint64_t steps) {
  RunOutcome outcome;
  outcome.silent = simulator.silent();
  outcome.steps = steps;
  outcome.output = summarize_output(protocol, simulator.census());
  simulator.publish_metrics();
  return outcome;
}

}  // namespace

SchedulerPlan planned_scheduler(const RunOptions& options, bool has_table,
                                std::size_t num_states,
                                core::Count population) {
  // Thresholds (rationale in docs/sim-sharding.md): a protocol without
  // a pair table runs on the census sampler alone. On a table of at
  // most 64 states the census sampler runs the whole of a kAuto run
  // from 2^16 agents on. Below that, kAuto starts on the one-shard
  // kernel, which beats the census sampler while most draws are
  // productive, and hands off to the sampler once the productive
  // fraction falls below 1 / SchedulerPlan::kHandoffDivisor. Sharding
  // the agent array only pays once the array has fallen out of cache.
  constexpr std::size_t kCensusMaxStates = 64;
  constexpr core::Count kCensusMinPopulation = 1 << 16;
  constexpr core::Count kShardMinPopulation = core::Count{1} << 22;
  if (!has_table) return {SchedulerChoice::kCensus, 0};
  SchedulerChoice scheduler = options.scheduler;
  const bool census_table = num_states <= kCensusMaxStates;
  if (scheduler == SchedulerChoice::kAuto) {
    scheduler = census_table && population >= kCensusMinPopulation
                    ? SchedulerChoice::kCensus
                    : SchedulerChoice::kSharded;
  }
  if (scheduler != SchedulerChoice::kSharded) return {scheduler, 0};
  SchedulerPlan plan{scheduler, options.shards};
  if (plan.shards == 0) {
    plan.shards = population >= kShardMinPopulation
                      ? ShardedOptions::kDefaultShards
                      : std::size_t{1};
  }
  if (options.scheduler == SchedulerChoice::kAuto && plan.shards == 1 &&
      census_table && population >= 2) {
    // n < 2^16 here, so n(n-1) is exact.
    plan.handoff_pairs =
        (population * (population - 1) + SchedulerPlan::kHandoffDivisor - 1) /
        SchedulerPlan::kHandoffDivisor;
  }
  return plan;
}

ConvergenceStats measure_convergence_parallel(
    const core::ConstructedProtocol& cp, const std::vector<core::Count>& input,
    std::size_t runs, const RunOptions& options, unsigned num_threads) {
  obs::ScopedSpan sweep_span("sim.sweep", "sim");
  sweep_span.arg("runs", runs);
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  // Compiled once, shared read-only by every worker.
  const std::optional<PairRuleTable> table =
      PairRuleTable::build(cp.protocol);

  const core::Count population = core::Protocol::population(initial);
  const SchedulerPlan plan = planned_scheduler(
      options, table.has_value(), cp.protocol.num_states(), population);

  std::vector<RunOutcome> outcomes(runs);
  const auto run_one = [&, plan](std::size_t r) {
    const std::uint64_t seed = options.seed + r;
    // One span per run, recorded on whichever worker thread executed
    // it -- the per-thread tracks in a Perfetto view of a parallel
    // sweep.
    obs::ScopedSpan span("sim.run", "sim");
    span.arg("seed", seed);
    RunOutcome& outcome = outcomes[r];
    const std::uint64_t max_steps = options.max_steps;
    std::size_t shards = 0;  // 0: the census path
    Path path = Path::kCensus;
    switch (plan.scheduler) {
      case SchedulerChoice::kSharded: {
        ShardedOptions sharded;
        sharded.shards = plan.shards;
        ShardedSimulator kernel(*table, initial, seed, sharded);
        shards = kernel.num_shards();
        kernel.run(max_steps, plan.handoff_pairs);
        if (kernel.silent() || kernel.steps() >= max_steps) {
          path = Path::kKernel;
          // A multi-shard epoch can overshoot the budget; report at
          // most the budget, like the paths that stop exactly.
          outcome = finish(kernel, cp.protocol,
                           std::min(kernel.steps(), max_steps));
          break;
        }
        // Stopped under the pair floor, at construction included. The
        // productive chain's law depends on the census alone
        // (sim/sharded.h), so the census sampler continues it exactly
        // from this barrier, on a stream disjoint from the kernel's
        // shard streams 0..S-1, for the rest of the budget.
        path = Path::kHandoff;
        kernel.publish_metrics();
        CensusSimulator census(cp.protocol.net(), kernel.census(),
                               util::Xoshiro256::stream(seed, shards));
        census.run(max_steps - kernel.steps());
        outcome = finish(census, cp.protocol, kernel.steps() + census.steps());
        break;
      }
      default: {  // kCensus
        if (!table) path = Path::kCount;
        CensusSimulator simulator(cp.protocol.net(), initial, seed);
        simulator.run(max_steps);
        outcome = finish(simulator, cp.protocol, simulator.steps());
        break;
      }
    }
    publish_dispatch(path);
    span.arg("shards", shards);
    span.arg("steps", outcome.steps);
  };
  util::parallel_for(runs, run_one, num_threads);

  // Aggregation in run-index order: the floating-point sums below are
  // evaluated in the same order regardless of thread count, which is
  // what makes the sweep bit-deterministic.
  ConvergenceStats stats;
  stats.runs = runs;
  double total_steps = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    const RunOutcome& outcome = outcomes[r];
    total_steps += static_cast<double>(outcome.steps);
    stats.max_steps_observed =
        std::max(stats.max_steps_observed, static_cast<double>(outcome.steps));
    if (outcome.silent) {
      ++stats.converged;
      // unanimous() scores the empty population as correct either way,
      // the same vacuous-truth convention verify::check_input applies.
      if (outcome.output.unanimous(expected)) {
        ++stats.correct;
      }
    }
  }
  if (runs > 0) stats.mean_steps = total_steps / static_cast<double>(runs);
  return stats;
}

ConvergenceStats measure_convergence(const core::ConstructedProtocol& cp,
                                     const std::vector<core::Count>& input,
                                     std::size_t runs,
                                     const RunOptions& options) {
  return measure_convergence_parallel(cp, input, runs, options, 1);
}

}  // namespace sim
}  // namespace ppsc
