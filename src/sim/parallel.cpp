#include "sim/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "sim/census.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"

namespace ppsc {
namespace sim {

namespace {

struct RunOutcome {
  bool silent = false;
  std::uint64_t steps = 0;
  OutputSummary output;
};

// The one run driver. Every scheduler exposes run(max_steps),
// silent(), steps(), census() and publish_metrics().
template <typename Simulator>
RunOutcome drive(Simulator& simulator, const core::Protocol& protocol,
                 std::uint64_t max_steps) {
  simulator.run(max_steps);
  RunOutcome outcome;
  outcome.silent = simulator.silent();
  // A multi-shard epoch can overshoot the budget; report at most the
  // budget, like the paths that stop exactly.
  outcome.steps = std::min(simulator.steps(), max_steps);
  outcome.output = summarize_output(protocol, simulator.census());
  simulator.publish_metrics();
  return outcome;
}

}  // namespace

SchedulerPlan planned_scheduler(const RunOptions& options, bool has_table,
                                std::size_t num_states,
                                core::Count population) {
  // Thresholds (rationale in docs/sim-sharding.md): the census path
  // needs a small rule-cell table and enough agents that skipping null
  // draws matters; sharding the agent array only pays once the array
  // has fallen out of cache. All committed goldens and sweep benches
  // run populations far below both cutoffs, so kAuto runs them on the
  // one-shard kernel.
  constexpr std::size_t kCensusMaxStates = 64;
  constexpr core::Count kCensusMinPopulation = 1 << 16;
  constexpr core::Count kShardMinPopulation = core::Count{1} << 22;
  if (!has_table) return {SchedulerChoice::kCount, 0};
  SchedulerChoice scheduler = options.scheduler;
  if (scheduler == SchedulerChoice::kAuto) {
    scheduler = num_states <= kCensusMaxStates &&
                        population >= kCensusMinPopulation
                    ? SchedulerChoice::kCensus
                    : SchedulerChoice::kSharded;
  }
  if (scheduler != SchedulerChoice::kSharded) return {scheduler, 0};
  if (options.shards != 0) return {scheduler, options.shards};
  return {scheduler, population >= kShardMinPopulation
                         ? ShardedOptions::kDefaultShards
                         : std::size_t{1}};
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

  core::Count population = 0;
  for (const core::Count c : initial) population += c;
  const SchedulerPlan plan = planned_scheduler(
      options, table.has_value(), cp.protocol.num_states(), population);

  unsigned workers = num_threads;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(runs, 1)));

  std::vector<RunOutcome> outcomes(runs);
  const auto run_one = [&, plan, workers](std::size_t r) {
    const std::uint64_t seed = options.seed + r;
    // One span per run, recorded on whichever worker thread executed
    // it -- the per-thread tracks in a Perfetto view of a parallel
    // sweep.
    obs::ScopedSpan span("sim.run", "sim");
    span.arg("seed", seed);
    RunOutcome& outcome = outcomes[r];
    std::size_t shards = 0;  // 0: the census and count paths
    switch (plan.scheduler) {
      case SchedulerChoice::kSharded: {
        ShardedOptions sharded;
        sharded.shards = plan.shards;
        // A sweep that already parallelizes across runs keeps each
        // sharded run single-threaded; sharding still pays via
        // locality + prefetch batching, and the result is
        // worker-count-independent either way.
        if (workers > 1) sharded.workers = 1;
        ShardedSimulator simulator(*table, initial, seed, sharded);
        shards = simulator.num_shards();
        outcome = drive(simulator, cp.protocol, options.max_steps);
        break;
      }
      case SchedulerChoice::kCensus: {
        CensusSimulator simulator(*table, initial, seed);
        outcome = drive(simulator, cp.protocol, options.max_steps);
        break;
      }
      default: {
        CountSimulator simulator(cp.protocol, initial, seed);
        outcome = drive(simulator, cp.protocol, options.max_steps);
        break;
      }
    }
    span.arg("shards", shards);
    span.arg("steps", outcome.steps);
  };
  if (workers <= 1) {
    for (std::size_t r = 0; r < runs; ++r) run_one(r);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&]() {
        for (std::size_t r = next.fetch_add(1); r < runs;
             r = next.fetch_add(1)) {
          run_one(r);
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
  }

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
