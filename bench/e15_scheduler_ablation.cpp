// E15 — Ablation: the two interchangeable schedulers.
//
// The two schedulers (the agent-array kernel, at one shard and
// sharded; the census sampler) implement the same productive
// interaction distribution (uniform random pair ≙
// instantiation-weighted transition sampling on pairwise conservative
// nets); their convergence statistics must agree within sampling noise
// while their throughput characteristics differ by orders of
// magnitude. Part 1 forces each scheduler through measure_convergence
// on identical protocols, populations and seeds, beside the default
// kAuto dispatch (kernel, then census handoff); part 1b runs the census
// sampler's count role on a protocol without a pair table; part 2
// reports raw throughput in each scheduler's natural unit; part 3
// demonstrates the parallel sweep runner's determinism.

#include <chrono>
#include <cstdio>

#include "core/constructions.h"
#include "report.h"
#include "sim/census.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;

// Agent-array kernel: raw draws/second at `shards` shards (0 = the
// default), accumulated epoch by epoch until the draw budget is met. A
// run that falls silent restarts on the next seed, construction
// included like the census row, so no draw is spent on a silent
// population.
double draws_per_second(const ppsc::core::ConstructedProtocol& c,
                        ppsc::core::Count population, std::uint64_t draws,
                        std::size_t shards) {
  auto table = ppsc::sim::PairRuleTable::build(c.protocol);
  ppsc::sim::ShardedOptions options;
  options.shards = shards;
  std::uint64_t executed = 0;
  std::uint64_t seed = 17;
  auto start = Clock::now();
  while (executed < draws) {
    ppsc::sim::ShardedSimulator simulator(
        *table, c.protocol.initial_config({population}), seed++, options);
    while (executed + simulator.interactions() < draws && simulator.epoch()) {
    }
    executed += simulator.interactions();
  }
  std::chrono::duration<double> elapsed = Clock::now() - start;
  return static_cast<double>(executed) / elapsed.count();
}

// Census path: *productive* steps/second. The protocols converge, so
// accumulate across repeated fresh runs until the budget is met
// (construction is O(transitions), negligible).
double steps_per_second_census(const ppsc::core::ConstructedProtocol& c,
                               ppsc::core::Count population,
                               std::uint64_t steps) {
  std::uint64_t executed = 0;
  std::uint64_t seed = 17;
  auto start = Clock::now();
  while (executed < steps) {
    ppsc::sim::CensusSimulator simulator(
        c.protocol.net(), c.protocol.initial_config({population}), seed++);
    while (executed < steps && simulator.step()) ++executed;
  }
  std::chrono::duration<double> elapsed = Clock::now() - start;
  return static_cast<double>(executed) / elapsed.count();
}

}  // namespace

int main() {
  ppsc::bench::Report report("e15_scheduler_ablation");
  std::printf(
      "E15 part 1: convergence agreement across the schedulers\n\n");
  // Identical protocol, populations and seeds for every arm: only the
  // scheduler differs, so the mean productive-step counts must agree
  // within sampling noise and every converged run must reach the
  // correct consensus. (The sharded arm uses 4 shards so each shard
  // holds a non-trivial slice even at the small populations.) The
  // kAuto arm starts on the one-shard kernel and hands the run to the
  // census sampler once fewer than one draw in
  // SchedulerPlan::kHandoffDivisor is productive; ns/step (wall time
  // per productive step) shows the crossover that constant encodes:
  // the kernel pays for every null draw of the slow tail, the census
  // sampler a fixed cost per productive step.
  {
    ppsc::util::TablePrinter agreement(
        {"scheduler", "population", "mean steps", "correct", "ns/step"});
    struct Arm {
      const char* name;
      ppsc::sim::SchedulerChoice scheduler;
      std::size_t shards;
    };
    const Arm arms[] = {
        {"agent-array", ppsc::sim::SchedulerChoice::kSharded, 1},
        {"sharded", ppsc::sim::SchedulerChoice::kSharded, 4},
        {"census", ppsc::sim::SchedulerChoice::kCensus, 0},
        {"auto (handoff)", ppsc::sim::SchedulerChoice::kAuto, 0},
    };
    auto c = ppsc::core::unary_counting(6);
    for (ppsc::core::Count population : {64, 256, 1024}) {
      for (const Arm& arm : arms) {
        ppsc::sim::RunOptions options;
        options.scheduler = arm.scheduler;
        options.shards = arm.shards;
        const auto start = Clock::now();
        auto stats =
            ppsc::sim::measure_convergence(c, {population}, 8, options);
        const std::chrono::duration<double> elapsed = Clock::now() - start;
        report.add_items(8);
        agreement.add_row(
            {arm.name, std::to_string(population),
             ppsc::util::format_double(stats.mean_steps, 5),
             std::to_string(stats.correct) + "/8",
             ppsc::util::format_double(
                 1e9 * elapsed.count() / (8.0 * stats.mean_steps), 3)});
      }
    }
    agreement.print();
  }

  std::printf(
      "\nE15 part 1b: census sampler on a table-free protocol\n\n");
  // The destructive variant has identical predicate semantics but does
  // not compile to a pair table, so every choice runs the census
  // sampler in its count role (instantiation weights, no null draws to
  // skip); its dynamics (and so its means) differ, but every converged
  // run must still reach the correct consensus. ns/step is wall time
  // per productive step, construction included.
  {
    ppsc::util::TablePrinter fallback(
        {"protocol", "population", "mean steps", "correct", "ns/step"});
    auto destructive = ppsc::core::destructive_unary_counting(6);
    for (ppsc::core::Count population : {64, 256, 4096}) {
      const auto start = Clock::now();
      auto stats = ppsc::sim::measure_convergence(destructive, {population}, 8);
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      report.add_items(8);
      fallback.add_row({"destructive(6)", std::to_string(population),
                        ppsc::util::format_double(stats.mean_steps, 5),
                        std::to_string(stats.correct) + "/8",
                        ppsc::util::format_double(
                            1e9 * elapsed.count() / (8.0 * stats.mean_steps),
                            3)});
    }
    fallback.print();
  }

  std::printf("\nE15 part 2: raw scheduler throughput\n\n");
  // Each row reports the scheduler's natural unit: raw draws/s for the
  // agent-array and sharded paths, productive steps/s for the census
  // path (it never executes null draws).
  ppsc::util::TablePrinter throughput(
      {"scheduler", "population", "unit", "rate/s"});
  auto c = ppsc::core::unary_counting(8);
  for (ppsc::core::Count population : {1000, 100000}) {
    throughput.add_row(
        {"agent-array", std::to_string(population), "draws",
         ppsc::util::format_double(
             draws_per_second(c, population, 2'000'000, 1), 4)});
  }
  throughput.add_row(
      {"sharded", "1000000", "draws",
       ppsc::util::format_double(draws_per_second(c, 1000000, 2'000'000, 0),
                                 4)});
  throughput.add_row(
      {"census", "1000000", "productive",
       ppsc::util::format_double(steps_per_second_census(c, 1000000, 100'000),
                                 4)});
  throughput.print();

  std::printf("\nE15 part 3: parallel sweep determinism\n\n");
  auto serial = ppsc::sim::measure_convergence(c, {500}, 8);
  report.add_items(16);
  auto parallel = ppsc::sim::measure_convergence_parallel(c, {500}, 8, {}, 4);
  std::printf("serial mean %.1f == parallel mean %.1f: %s\n",
              serial.mean_steps, parallel.mean_steps,
              serial.mean_steps == parallel.mean_steps ? "yes" : "NO");
  return 0;
}
