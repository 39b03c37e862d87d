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

RunOutcome run_agent_path(const PairRuleTable& table,
                          const core::Protocol& protocol,
                          const core::Config& initial,
                          const RunOptions& options, std::uint64_t seed) {
  // One span per run, recorded on whichever worker thread executed it
  // -- the per-thread tracks in a Perfetto view of a parallel sweep.
  obs::ScopedSpan span("sim.run", "sim");
  span.arg("seed", seed);
  AgentSimulator simulator(table, initial, seed);
  const std::uint64_t interval =
      std::max<std::uint64_t>(1, options.silence_check_interval);
  std::uint64_t since_poll = 0;
  RunOutcome outcome;
  outcome.silent = simulator.silent();
  while (!outcome.silent && simulator.steps() < options.max_steps) {
    simulator.step();
    if (++since_poll >= interval) {
      since_poll = 0;
      outcome.silent = simulator.silent();
    }
  }
  outcome.steps = simulator.steps();
  outcome.output = summarize_output(protocol, simulator.census());
  simulator.publish_metrics();
  span.arg("steps", outcome.steps);
  return outcome;
}

RunOutcome run_count_path(const core::Protocol& protocol,
                          const std::vector<core::Count>& input,
                          const RunOptions& options, std::uint64_t seed) {
  obs::ScopedSpan span("sim.run", "sim");
  span.arg("seed", seed);
  RunOptions per_run = options;
  per_run.seed = seed;
  const SilenceRun run = run_to_silence(protocol, input, per_run);
  span.arg("steps", run.steps);
  return {run.silent, run.steps, run.final_output};
}

RunOutcome run_sharded_path(const PairRuleTable& table,
                            const core::Protocol& protocol,
                            const core::Config& initial,
                            const RunOptions& options, std::uint64_t seed,
                            unsigned sweep_workers) {
  obs::ScopedSpan span("sim.shard.run", "sim");
  span.arg("seed", seed);
  ShardedOptions sharded;
  sharded.shards = options.shards;
  // A sweep that already parallelizes across runs keeps each sharded
  // run single-threaded; sharding still pays via locality + prefetch
  // batching, and the result is worker-count-independent either way.
  if (sweep_workers > 1) sharded.workers = 1;
  ShardedSimulator simulator(table, initial, seed, sharded);
  simulator.run(options.max_steps);
  RunOutcome outcome;
  outcome.silent = simulator.silent();
  // Epoch granularity can overshoot the budget; report at most the
  // budget, like the per-step paths.
  outcome.steps = std::min(simulator.steps(), options.max_steps);
  outcome.output = summarize_output(protocol, simulator.census());
  simulator.publish_metrics();
  span.arg("steps", outcome.steps);
  return outcome;
}

RunOutcome run_census_path(const PairRuleTable& table,
                           const core::Protocol& protocol,
                           const core::Config& initial,
                           const RunOptions& options, std::uint64_t seed) {
  obs::ScopedSpan span("sim.run", "sim");
  span.arg("seed", seed);
  CensusSimulator simulator(table, initial, seed);
  RunOutcome outcome;
  outcome.silent = simulator.silent();
  while (!outcome.silent && simulator.steps() < options.max_steps) {
    simulator.step();
    outcome.silent = simulator.silent();
  }
  outcome.steps = simulator.steps();
  outcome.output = summarize_output(protocol, simulator.census());
  simulator.publish_metrics();
  span.arg("steps", outcome.steps);
  return outcome;
}

}  // namespace

SchedulerChoice planned_scheduler(const RunOptions& options, bool has_table,
                                  std::size_t num_states,
                                  core::Count population) {
  // Thresholds (rationale in docs/sim-sharding.md): the census path
  // needs a small rule-cell table and enough agents that skipping null
  // draws matters; the sharded path only beats the plain agent array
  // once the array has fallen out of cache. All committed goldens and
  // sweep benches run populations far below both cutoffs, so kAuto
  // changes nothing for them.
  constexpr std::size_t kCensusMaxStates = 64;
  constexpr core::Count kCensusMinPopulation = 1 << 16;
  constexpr core::Count kShardMinPopulation = core::Count{1} << 22;
  if (!has_table) return SchedulerChoice::kCount;
  switch (options.scheduler) {
    case SchedulerChoice::kAgent:
    case SchedulerChoice::kSharded:
    case SchedulerChoice::kCensus:
    case SchedulerChoice::kCount:
      return options.scheduler;
    case SchedulerChoice::kAuto:
      break;
  }
  if (num_states <= kCensusMaxStates && population >= kCensusMinPopulation) {
    return SchedulerChoice::kCensus;
  }
  if (population >= kShardMinPopulation) return SchedulerChoice::kSharded;
  return SchedulerChoice::kAgent;
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
  const SchedulerChoice choice = planned_scheduler(
      options, table.has_value(), cp.protocol.num_states(), population);

  unsigned workers = num_threads;
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  workers = static_cast<unsigned>(
      std::min<std::size_t>(workers, std::max<std::size_t>(runs, 1)));

  std::vector<RunOutcome> outcomes(runs);
  const auto run_one = [&, choice, workers](std::size_t r) {
    const std::uint64_t seed = options.seed + r;
    switch (choice) {
      case SchedulerChoice::kSharded:
        outcomes[r] = run_sharded_path(*table, cp.protocol, initial, options,
                                       seed, workers);
        return;
      case SchedulerChoice::kCensus:
        outcomes[r] =
            run_census_path(*table, cp.protocol, initial, options, seed);
        return;
      case SchedulerChoice::kCount:
        outcomes[r] = run_count_path(cp.protocol, input, options, seed);
        return;
      case SchedulerChoice::kAgent:
      case SchedulerChoice::kAuto:
        break;
    }
    outcomes[r] =
        run_agent_path(*table, cp.protocol, initial, options, seed);
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
