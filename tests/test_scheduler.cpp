// Scheduler architecture: pair-table compilation, scheduler
// equivalence across the three schedulers (the agent-array kernel at
// one and several shards, census, count) and a per-draw reference
// loop, the kernel's exact budget stop and determinism contract, the
// census sampler's exact law (chi-square and the exact expected-time
// oracle), the dispatch heuristic, and the deterministic parallel
// sweep runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/constructions.h"
#include "sim/census.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace core = ppsc::core;
namespace sim = ppsc::sim;

namespace {

// Re-derives silence from the census by scanning every table cell --
// the ground truth the enabled-pair counts must track.
bool brute_force_silent(const sim::PairRuleTable& table,
                        const core::Config& census) {
  const std::size_t n = table.num_states();
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (table.rule(a, b) == nullptr) continue;
      if (a == b ? census[a] >= 2 : census[a] >= 1 && census[b] >= 1) {
        return false;
      }
    }
  }
  return true;
}

// The classical uniform random-pair scheduler, one draw at a time:
// the per-draw reference the one-shard kernel must reproduce exactly.
struct ReferenceChain {
  ReferenceChain(const sim::PairRuleTable& rules, const core::Config& initial,
                 std::uint64_t seed)
      : table(&rules), rng(seed), census(initial) {
    for (std::size_t q = 0; q < initial.size(); ++q) {
      agents.insert(agents.end(), static_cast<std::size_t>(initial[q]),
                    static_cast<std::uint32_t>(q));
    }
  }
  // Draws one ordered pair of distinct agents; fires its rule if any.
  void draw() {
    const std::uint64_t i = rng.below(agents.size());
    std::uint64_t j = rng.below(agents.size() - 1);
    if (j >= i) ++j;
    ++draws;
    const sim::PairRuleTable::Outcome* outcome =
        table->rule(agents[i], agents[j]);
    if (outcome == nullptr) return;
    --census[agents[i]];
    --census[agents[j]];
    ++census[outcome->first];
    ++census[outcome->second];
    agents[i] = outcome->first;
    agents[j] = outcome->second;
    ++steps;
  }
  // Draws until silent or `max_steps` productive steps; silence can
  // only change on a productive draw.
  void run(std::uint64_t max_steps) {
    for (bool silent = brute_force_silent(*table, census);
         !silent && steps < max_steps;) {
      const std::uint64_t before = steps;
      draw();
      if (steps != before) silent = brute_force_silent(*table, census);
    }
  }

  const sim::PairRuleTable* table;
  ppsc::util::Xoshiro256 rng;
  core::Config census;
  std::vector<std::uint32_t> agents;
  std::uint64_t steps = 0;
  std::uint64_t draws = 0;
};

struct DirectStats {
  std::size_t converged = 0;
  std::size_t correct = 0;
  double mean_steps = 0.0;
};

// Drives `runs` seeded per-draw reference chains to silence.
DirectStats run_reference_direct(const core::ConstructedProtocol& cp,
                                 const std::vector<core::Count>& input,
                                 std::size_t runs) {
  const auto table = sim::PairRuleTable::build(cp.protocol);
  DirectStats stats;
  if (!table) {
    ADD_FAILURE() << "protocol did not compile to a pair table";
    return stats;
  }
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    ReferenceChain reference(*table, initial, 1000 + r);
    reference.run(2000000);
    if (brute_force_silent(*table, reference.census)) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, reference.census);
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(reference.steps);
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

// Same measurement through the count scheduler.
DirectStats run_count_direct(const core::ConstructedProtocol& cp,
                             const std::vector<core::Count>& input,
                             std::size_t runs) {
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  DirectStats stats;
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::CountSimulator simulator(cp.protocol, initial, 1000 + r);
    while (simulator.steps() < 2000000 && simulator.step()) {
    }
    if (simulator.silent()) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, simulator.census());
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(simulator.steps());
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

}  // namespace

TEST(PairRuleTable, CompilesDeterministicPairwiseNets) {
  const auto unary = core::unary_counting(3);
  EXPECT_TRUE(sim::PairRuleTable::build(unary.protocol).has_value());
  const auto belief = core::threshold_belief(4);
  EXPECT_TRUE(sim::PairRuleTable::build(belief.protocol).has_value());
  const auto e42 = core::example_4_2(3);
  EXPECT_TRUE(sim::PairRuleTable::build(e42.protocol).has_value());
}

TEST(PairRuleTable, RejectsNonPairwiseNets) {
  // Example 4.1 has a width-n transition.
  const auto wide = core::example_4_1(3);
  EXPECT_FALSE(sim::PairRuleTable::build(wide.protocol).has_value());
  // The destructive unary variant has a width-1 decay rule.
  const auto destructive = core::destructive_unary_counting(3);
  EXPECT_FALSE(sim::PairRuleTable::build(destructive.protocol).has_value());
}

TEST(PairRuleTable, AcceptsDuplicateIdenticalRules) {
  // Registering the same transition twice is deterministic: the cell
  // already holds exactly this outcome. Regression for the bug where
  // any occupied cell was treated as a conflict, kicking protocols off
  // the agent fast path.
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  b.add_input(A);
  b.add_pair_rule("convert", A, B, B, B);
  b.add_pair_rule("convert_again", A, B, B, B);
  const auto table = sim::PairRuleTable::build(b.build());
  ASSERT_TRUE(table.has_value());
  const sim::PairRuleTable::Outcome* cell =
      table->rule(static_cast<std::uint32_t>(A),
                  static_cast<std::uint32_t>(B));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->first, static_cast<std::uint32_t>(B));
  EXPECT_EQ(cell->second, static_cast<std::uint32_t>(B));
}

TEST(PairRuleTable, RejectsConflictingRulesOnSamePrePair) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  b.add_input(A);
  b.add_pair_rule("toB", A, B, B, B);
  b.add_pair_rule("toA", A, B, A, A);
  EXPECT_FALSE(sim::PairRuleTable::build(b.build()).has_value());
}

TEST(PairRuleTable, RejectsStateSpacesAboveTheSizeCap) {
  // A dense table over kMaxStates + 1 states would hold ~16.8M cells;
  // build() refuses it up front, and dispatch falls back to the count
  // path exactly as for a non-pairwise net.
  core::ProtocolBuilder b;
  for (std::size_t q = 0; q <= sim::PairRuleTable::kMaxStates; ++q) {
    b.add_state("q" + std::to_string(q), false);
  }
  b.add_input(0);
  const core::Protocol protocol = b.build();
  ASSERT_EQ(protocol.num_states(), 4097u);
  const auto table = sim::PairRuleTable::build(protocol);
  EXPECT_FALSE(table.has_value());
  EXPECT_EQ(sim::planned_scheduler(sim::RunOptions{}, table.has_value(),
                                   protocol.num_states(), 1 << 16)
                .scheduler,
            sim::SchedulerChoice::kCount);
}

TEST(PairRuleTable, CellsMatchTheRules) {
  // majority(): A=0, B=1, a=2, b=3; cancel A+B -> a+b,
  // recruitA A+b -> A+a, recruitB B+a -> B+b, tie a+b -> b+b.
  const auto maj = core::majority();
  const auto table = sim::PairRuleTable::build(maj.protocol);
  ASSERT_TRUE(table.has_value());
  const sim::PairRuleTable::Outcome* cancel = table->rule(0, 1);
  ASSERT_NE(cancel, nullptr);
  EXPECT_EQ(cancel->first, 2u);
  EXPECT_EQ(cancel->second, 3u);
  // The mirrored cell swaps the outcome.
  const sim::PairRuleTable::Outcome* mirrored = table->rule(1, 0);
  ASSERT_NE(mirrored, nullptr);
  EXPECT_EQ(mirrored->first, 3u);
  EXPECT_EQ(mirrored->second, 2u);
  // No rule for two strong A agents.
  EXPECT_EQ(table->rule(0, 0), nullptr);

  // Diagonal cell: threshold_belief's L0 + L0 -> L1 + L0.
  const auto belief = core::threshold_belief(3);
  const auto belief_table = sim::PairRuleTable::build(belief.protocol);
  ASSERT_TRUE(belief_table.has_value());
  const sim::PairRuleTable::Outcome* up = belief_table->rule(0, 0);
  ASSERT_NE(up, nullptr);
  // The successor multiset is {L0, L1}; which agent takes which state
  // is arbitrary for a diagonal cell (the pair draw is symmetric).
  EXPECT_EQ(std::min(up->first, up->second), 0u);
  EXPECT_EQ(std::max(up->first, up->second), 1u);
}

TEST(SchedulerEquivalence, UnaryCountingStatsAgree) {
  // The productive-step chains of the two schedulers are identical in
  // distribution, so their means over matched run counts must agree
  // within sampling noise (generous 20% margin; the seeds are fixed,
  // so this is deterministic).
  const auto cp = core::unary_counting(3);
  const DirectStats agent = run_reference_direct(cp, {24}, 48);
  const DirectStats count = run_count_direct(cp, {24}, 48);
  EXPECT_EQ(agent.converged, 48u);
  EXPECT_EQ(count.converged, 48u);
  EXPECT_EQ(agent.correct, 48u);
  EXPECT_EQ(count.correct, 48u);
  EXPECT_GT(agent.mean_steps, 0.0);
  EXPECT_NEAR(agent.mean_steps, count.mean_steps, 0.2 * count.mean_steps);
}

TEST(SchedulerEquivalence, Example42StatsAgree) {
  const auto cp = core::example_4_2(3);
  const DirectStats agent = run_reference_direct(cp, {5}, 48);
  const DirectStats count = run_count_direct(cp, {5}, 48);
  EXPECT_EQ(agent.converged, 48u);
  EXPECT_EQ(count.converged, 48u);
  EXPECT_EQ(agent.correct, 48u);
  EXPECT_EQ(count.correct, 48u);
  EXPECT_NEAR(agent.mean_steps, count.mean_steps, 0.2 * count.mean_steps);
}

TEST(ParallelSweep, BitIdenticalAcrossThreadCounts) {
  const auto cp = core::unary_counting(3);
  const sim::ConvergenceStats one =
      sim::measure_convergence_parallel(cp, {40}, 12, {}, 1);
  const sim::ConvergenceStats four =
      sim::measure_convergence_parallel(cp, {40}, 12, {}, 4);
  EXPECT_EQ(one.runs, four.runs);
  EXPECT_EQ(one.converged, four.converged);
  EXPECT_EQ(one.correct, four.correct);
  // Bit-identical, not merely close: per-run seeds and the
  // index-ordered aggregation make thread count irrelevant.
  EXPECT_EQ(one.mean_steps, four.mean_steps);
  EXPECT_EQ(one.max_steps_observed, four.max_steps_observed);

  const sim::ConvergenceStats serial = sim::measure_convergence(cp, {40}, 12);
  EXPECT_EQ(serial.mean_steps, one.mean_steps);
  EXPECT_EQ(serial.max_steps_observed, one.max_steps_observed);
}

TEST(ParallelSweep, CountFallbackMatchesRunToSilence) {
  // The destructive variant cannot compile to a pair table, so the
  // sweep must take the count path -- whose runs are exactly
  // run_to_silence with seeds options.seed + r.
  const auto cp = core::destructive_unary_counting(3);
  ASSERT_FALSE(sim::PairRuleTable::build(cp.protocol).has_value());
  sim::RunOptions options;
  options.seed = 77;
  const sim::ConvergenceStats stats =
      sim::measure_convergence_parallel(cp, {6}, 3, options, 2);
  EXPECT_EQ(stats.converged, 3u);
  EXPECT_EQ(stats.correct, 3u);
  double total = 0.0;
  double observed_max = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    sim::RunOptions per_run = options;
    per_run.seed = options.seed + r;
    const sim::SilenceRun run =
        sim::run_to_silence(cp.protocol, {6}, per_run);
    EXPECT_TRUE(run.silent);
    total += static_cast<double>(run.steps);
    observed_max =
        std::max(observed_max, static_cast<double>(run.steps));
  }
  EXPECT_EQ(stats.mean_steps, total / 3.0);
  EXPECT_EQ(stats.max_steps_observed, observed_max);
}

// Drives seeded sharded simulations to silence directly.
DirectStats run_sharded_direct(const core::ConstructedProtocol& cp,
                               const std::vector<core::Count>& input,
                               std::size_t runs,
                               const sim::ShardedOptions& options) {
  const auto table = sim::PairRuleTable::build(cp.protocol);
  DirectStats stats;
  if (!table) {
    ADD_FAILURE() << "protocol did not compile to a pair table";
    return stats;
  }
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::ShardedSimulator simulator(*table, initial, 1000 + r, options);
    simulator.run(2000000);
    if (simulator.silent()) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, simulator.census());
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(simulator.steps());
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

// Same measurement through the census scheduler.
DirectStats run_census_direct(const core::ConstructedProtocol& cp,
                              const std::vector<core::Count>& input,
                              std::size_t runs) {
  const auto table = sim::PairRuleTable::build(cp.protocol);
  DirectStats stats;
  if (!table) {
    ADD_FAILURE() << "protocol did not compile to a pair table";
    return stats;
  }
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::CensusSimulator simulator(*table, initial, 1000 + r);
    while (simulator.steps() < 2000000 && simulator.step()) {
    }
    if (simulator.silent()) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, simulator.census());
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(simulator.steps());
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

TEST(ShardedSimulator, OneShardMatchesThePerDrawReferenceAtEveryBarrier) {
  // The 1-shard contract: one slice, no exchange, the reference's very
  // RNG draw sequence -- census, steps and raw draws must match bit for
  // bit at every epoch barrier, and the barrier silence flag must
  // agree with a brute-force rescan.
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({1000});
  sim::ShardedOptions options;
  options.shards = 1;
  sim::ShardedSimulator kernel(*table, initial, 99, options);
  ASSERT_EQ(kernel.num_shards(), 1u);
  ReferenceChain reference(*table, initial, 99);
  for (int e = 0; !kernel.silent(); ++e) {
    ASSERT_LT(e, 100000);
    kernel.epoch();
    for (std::uint64_t k = 0; k < kernel.epoch_length(); ++k) {
      reference.draw();
    }
    ASSERT_EQ(kernel.census(), reference.census) << "epoch " << e;
    ASSERT_EQ(kernel.steps(), reference.steps) << "epoch " << e;
    ASSERT_EQ(kernel.interactions(), reference.draws) << "epoch " << e;
    ASSERT_EQ(kernel.silent(), brute_force_silent(*table, kernel.census()))
        << "epoch " << e;
  }
  EXPECT_GT(kernel.epochs(), 1u);
}

TEST(ShardedSimulator, OneShardRunStopsExactlyAtTheBudget) {
  // run(max) on one shard stops right after the draw that brings the
  // productive count to max, even mid-group and mid-epoch, so
  // successive budgets continue the reference chain without a gap.
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({1000});
  sim::ShardedOptions options;
  options.shards = 1;
  sim::ShardedSimulator kernel(*table, initial, 4242, options);
  ReferenceChain reference(*table, initial, 4242);
  for (const std::uint64_t max : {1u, 2u, 3u, 63u, 64u, 65u, 300u, 301u}) {
    EXPECT_EQ(kernel.run(max), max);
    reference.run(max);
    ASSERT_EQ(kernel.steps(), max);
    ASSERT_EQ(reference.steps, max);
    ASSERT_EQ(kernel.census(), reference.census) << "budget " << max;
    ASSERT_EQ(kernel.interactions(), reference.draws) << "budget " << max;
  }
  // Past the budgets, both run to the same silent census.
  kernel.run(~std::uint64_t{0});
  reference.run(~std::uint64_t{0});
  EXPECT_TRUE(kernel.silent());
  EXPECT_EQ(kernel.census(), reference.census);
  EXPECT_EQ(kernel.steps(), reference.steps);
}

TEST(ShardedSimulator, MultiShardRunOvershootsByLessThanShardsTimesEpoch) {
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({20000});
  sim::ShardedOptions options;
  options.shards = 4;
  options.workers = 1;
  for (const std::uint64_t max : {1u, 100u, 1000u, 5000u}) {
    sim::ShardedSimulator kernel(*table, initial, 11, options);
    kernel.run(max);
    ASSERT_FALSE(kernel.silent()) << "budget " << max;
    EXPECT_GE(kernel.steps(), max);
    EXPECT_LT(kernel.steps() - max,
              kernel.num_shards() * kernel.epoch_length())
        << "budget " << max;
  }
}

TEST(ShardedSimulator, EpochLengthIsDerivedFromSliceAndTable) {
  // K = clamp(max(m / 8, R), 64, 8192) for slice size m and partner
  // entries R.
  const auto cp = core::unary_counting(8);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  std::uint64_t partner_entries = 0;
  for (std::size_t q = 0; q < table->num_states(); ++q) {
    partner_entries += table->partners(q).size();
  }
  ASSERT_EQ(partner_entries, 277u);
  const auto epoch_length = [&](core::Count n, std::size_t shards) {
    sim::ShardedOptions options;
    options.shards = shards;
    options.workers = 1;
    return sim::ShardedSimulator(*table, cp.protocol.initial_config({n}), 1,
                                 options)
        .epoch_length();
  };
  // R dominates at 1000 agents, m / 8 at 4000; the ceiling holds from
  // slices of 65,536 agents up.
  EXPECT_EQ(epoch_length(1000, 1), 277u);
  EXPECT_EQ(epoch_length(4000, 1), 500u);
  EXPECT_EQ(epoch_length(1000000, 1), 8192u);
  EXPECT_EQ(epoch_length(8 * 65536, 8), 8192u);
  // unary_counting(2) has R = 25: the floor of 64 applies.
  const auto small = core::unary_counting(2);
  const auto small_table = sim::PairRuleTable::build(small.protocol);
  ASSERT_TRUE(small_table.has_value());
  sim::ShardedOptions one;
  one.shards = 1;
  const sim::ShardedSimulator floor(
      *small_table, small.protocol.initial_config({64}), 1, one);
  EXPECT_EQ(floor.epoch_length(), 64u);
}

TEST(ShardedSimulator, TinyPopulationsAreSilent) {
  const auto cp = core::unary_counting(2);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  for (const core::Count n : {0, 1}) {
    sim::ShardedSimulator tiny(*table, cp.protocol.initial_config({n}), 1);
    EXPECT_EQ(tiny.num_shards(), 1u);
    EXPECT_TRUE(tiny.silent());
    EXPECT_FALSE(tiny.epoch());
    EXPECT_EQ(tiny.run(100), 0u);
    EXPECT_EQ(tiny.interactions(), 0u);
  }
}

TEST(ShardedSimulator, ShardCountIsClampedSoEverySliceCanDraw) {
  // A slice of fewer than two agents never draws; before the clamp a
  // forced 8-shard run on 5 agents looped forever on a non-silent
  // census.
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::ShardedOptions options;
  options.shards = 8;
  options.workers = 1;
  const sim::ShardedSimulator five(*table, cp.protocol.initial_config({5}), 1,
                                   options);
  EXPECT_EQ(five.num_shards(), 2u);
  const sim::ShardedSimulator three(*table, cp.protocol.initial_config({3}),
                                    1, options);
  EXPECT_EQ(three.num_shards(), 1u);

  sim::RunOptions forced;
  forced.scheduler = sim::SchedulerChoice::kSharded;
  forced.shards = 8;
  forced.max_steps = 1000;
  const sim::ConvergenceStats stats =
      sim::measure_convergence(cp, {5}, 1, forced);
  EXPECT_EQ(stats.converged, 1u);
  EXPECT_EQ(stats.correct, 1u);
}

TEST(ShardedSimulator, SeedDeterministicAndWorkerCountInvariant) {
  // Same (seed, shards) => bit-identical chain; worker threads only
  // decide where a shard's batch executes, never what it computes.
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({20000});
  sim::ShardedOptions serial;
  serial.shards = 4;
  serial.workers = 1;
  sim::ShardedOptions threaded = serial;
  threaded.workers = 4;
  sim::ShardedSimulator a(*table, initial, 7, serial);
  sim::ShardedSimulator b(*table, initial, 7, threaded);
  sim::ShardedSimulator c(*table, initial, 7, threaded);
  ASSERT_EQ(b.num_workers(), 4u);
  for (int e = 0; e < 40; ++e) {
    a.epoch();
    b.epoch();
    c.epoch();
  }
  EXPECT_EQ(a.census(), b.census());
  EXPECT_EQ(a.steps(), b.steps());
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.cross_swaps(), b.cross_swaps());
  EXPECT_EQ(b.census(), c.census());
  EXPECT_EQ(b.steps(), c.steps());
}

TEST(ShardedSimulator, ConservesPopulationAndDetectsSilence) {
  // Cross-shard exchange must conserve the census it permutes, and the
  // barrier silence check must agree with a brute-force rescan.
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::ShardedOptions options;
  options.shards = 3;
  options.workers = 1;
  options.exchange_shift = 0;  // maximal exchange stress
  sim::ShardedSimulator simulator(
      *table, cp.protocol.initial_config({120}), 5, options);
  const core::Count population = simulator.population();
  ASSERT_EQ(population, 120);
  int epochs = 0;
  while (simulator.epoch()) {
    ASSERT_EQ(core::Protocol::population(simulator.census()), population);
    ASSERT_EQ(simulator.silent(),
              brute_force_silent(*table, simulator.census()));
    ASSERT_LT(++epochs, 100000);
  }
  EXPECT_TRUE(simulator.silent());
  EXPECT_TRUE(brute_force_silent(*table, simulator.census()));
  EXPECT_GT(simulator.cross_swaps(), 0u);
  EXPECT_GE(simulator.interactions(), simulator.steps());
}

TEST(SchedulerEquivalence, ShardedMatchesAgentDistribution) {
  // The mixing argument in sim/sharded.h: sharded draws with periodic
  // cross-shard exchange preserve the uniform-pair law up to O(K/m)
  // per-draw bias. Empirically the mean convergence time over matched
  // run counts must agree with the per-draw reference within sampling
  // noise (the seeds are fixed, so this is deterministic).
  const auto cp = core::unary_counting(3);
  sim::ShardedOptions options;
  options.shards = 4;
  options.workers = 1;
  const DirectStats agent = run_reference_direct(cp, {2048}, 12);
  const DirectStats sharded = run_sharded_direct(cp, {2048}, 12, options);
  EXPECT_EQ(agent.converged, 12u);
  EXPECT_EQ(sharded.converged, 12u);
  EXPECT_EQ(agent.correct, 12u);
  EXPECT_EQ(sharded.correct, 12u);
  EXPECT_GT(agent.mean_steps, 0.0);
  EXPECT_NEAR(agent.mean_steps, sharded.mean_steps, 0.2 * agent.mean_steps);
}

TEST(SchedulerEquivalence, CensusMatchesAgentDistribution) {
  // Conditional on productivity the census scheduler samples the very
  // cell law of the agent-array scheduler, so the productive chains
  // are equal in distribution -- not just close.
  const auto cp = core::unary_counting(3);
  const DirectStats agent = run_reference_direct(cp, {500}, 32);
  const DirectStats census = run_census_direct(cp, {500}, 32);
  EXPECT_EQ(agent.converged, 32u);
  EXPECT_EQ(census.converged, 32u);
  EXPECT_EQ(agent.correct, 32u);
  EXPECT_EQ(census.correct, 32u);
  EXPECT_NEAR(agent.mean_steps, census.mean_steps, 0.2 * agent.mean_steps);
}

TEST(CensusSimulator, TracksSilenceExactly) {
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::CensusSimulator simulator(*table, cp.protocol.initial_config({12}), 7);
  const core::Count population = simulator.population();
  ASSERT_EQ(population, 12);
  ASSERT_FALSE(simulator.silent());
  while (simulator.step()) {
    ASSERT_EQ(simulator.silent(),
              brute_force_silent(*table, simulator.census()));
    ASSERT_EQ(core::Protocol::population(simulator.census()), population);
    ASSERT_LT(simulator.steps(), 100000u);
  }
  EXPECT_TRUE(simulator.silent());
  EXPECT_TRUE(brute_force_silent(*table, simulator.census()));
  // The geometric null skip accounts at least one draw per productive
  // step, so the sampled raw-draw total dominates the productive one.
  EXPECT_GE(simulator.interactions(), simulator.steps());
  EXPECT_GT(simulator.weight_updates(), 0u);
}

TEST(CensusSimulator, SamplesCellsWithExactWeights) {
  // One productive step from a fixed census on each of kRuns seeded
  // simulators. The fired cell must follow w(a,b)/W exactly. Cells
  // (a,b) and (b,a) leave the same census behind, so the histogram is
  // over successor censuses, each expecting the summed weight of the
  // cells that produce it. Firing a zero-weight cell would drive some
  // count negative -- a successor outside the expected set.
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const auto& id = cp.protocol.states();
  core::Config census(cp.protocol.num_states(), 0);
  census[id.at("1")] = 6;
  census[id.at("2")] = 3;
  census[id.at("3")] = 1;
  census[id.at("0!")] = 2;
  std::map<core::Config, long long> weight_of;
  long long total = 0;
  std::size_t zero_cells = 0;
  for (std::uint32_t a = 0; a < table->num_states(); ++a) {
    for (const std::uint32_t b : table->partners(a)) {
      const long long w =
          a == b ? census[a] * (census[a] - 1) : census[a] * census[b];
      if (w == 0) {
        ++zero_cells;
        continue;
      }
      const sim::PairRuleTable::Outcome* outcome = table->rule(a, b);
      core::Config next = census;
      --next[a];
      --next[b];
      ++next[outcome->first];
      ++next[outcome->second];
      weight_of[next] += w;
      total += w;
    }
  }
  ASSERT_GE(zero_cells, 10u);

  constexpr std::size_t kRuns = 20000;
  std::map<core::Config, std::size_t> observed;
  for (std::size_t r = 0; r < kRuns; ++r) {
    sim::CensusSimulator simulator(*table, census, 5000 + r);
    ASSERT_TRUE(simulator.step());
    ++observed[simulator.census()];
  }
  for (const auto& [next, count] : observed) {
    ASSERT_EQ(weight_of.count(next), 1u) << "fired a zero-weight cell";
  }
  // 8 successor censuses (W = 130, weights 4..36) give 7 degrees of
  // freedom; the 0.001 upper quantile of chi-square(7) is 24.32. The
  // smallest expected count is kRuns * 4 / 130 ~ 615, far above the
  // usual 5.
  ASSERT_EQ(weight_of.size(), 8u);
  double chi_square = 0.0;
  for (const auto& [next, w] : weight_of) {
    const double expected = static_cast<double>(kRuns) *
                            static_cast<double>(w) /
                            static_cast<double>(total);
    const double diff = static_cast<double>(observed[next]) - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_LT(chi_square, 24.32);
}

TEST(CensusSimulator, SoleEnabledCellAlwaysFires) {
  // One enabled cell, (1,1) with weight 2, among the table's other,
  // disabled cells: every draw must land on it, whatever the seed.
  // (A floating-point alias table needs a fixup for exactly this
  // shape.)
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const auto& id = cp.protocol.states();
  core::Config census(cp.protocol.num_states(), 0);
  census[id.at("0")] = 1000;
  census[id.at("1")] = 2;
  core::Config merged = census;
  merged[id.at("1")] = 0;
  merged[id.at("0")] = 1001;
  merged[id.at("2")] = 1;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    sim::CensusSimulator simulator(*table, census, seed);
    ASSERT_EQ(simulator.enabled_pairs(), 2);
    ASSERT_TRUE(simulator.step());
    ASSERT_EQ(simulator.census(), merged) << "seed " << seed;
    ASSERT_TRUE(simulator.silent());
  }
}

TEST(CensusSimulator, MeanStepsMatchTheExactOracle) {
  // The census chain is the exact productive-step chain, so its mean
  // time to silence must match expected_interactions_to_silence within
  // 4 standard errors: |mean - E| < 4 s / sqrt(kRuns), s the sample
  // standard deviation. With kRuns = 4000 that is a relative
  // tolerance of about 0.6% for unary_counting(3) at 12 agents
  // (E ~ 15.97) and 1.8% for Example 4.2 with 3 leaders at x = 4
  // (E ~ 8.47).
  constexpr std::size_t kRuns = 4000;
  const auto check = [&](const core::ConstructedProtocol& cp,
                         const std::vector<core::Count>& input) {
    const sim::ExpectedTimeResult exact =
        sim::expected_interactions_to_silence(cp.protocol, input);
    ASSERT_TRUE(exact.computed);
    const auto table = sim::PairRuleTable::build(cp.protocol);
    ASSERT_TRUE(table.has_value());
    const core::Config initial = cp.protocol.initial_config(input);
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t r = 0; r < kRuns; ++r) {
      sim::CensusSimulator simulator(*table, initial, 9000 + r);
      while (simulator.step()) {
      }
      const double steps = static_cast<double>(simulator.steps());
      sum += steps;
      sum_sq += steps * steps;
    }
    const double n = static_cast<double>(kRuns);
    const double mean = sum / n;
    const double sd = std::sqrt((sum_sq - sum * mean) / (n - 1.0));
    EXPECT_NEAR(mean, exact.expected_steps, 4.0 * sd / std::sqrt(n));
  };
  check(core::unary_counting(3), {12});
  check(core::example_4_2(3), {4});
}

TEST(CensusSimulator, TinyPopulationsAreSilent) {
  const auto cp = core::unary_counting(2);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::CensusSimulator empty(*table, cp.protocol.initial_config({0}), 1);
  EXPECT_TRUE(empty.silent());
  EXPECT_FALSE(empty.step());
  sim::CensusSimulator loner(*table, cp.protocol.initial_config({1}), 1);
  EXPECT_TRUE(loner.silent());
  EXPECT_FALSE(loner.step());
  EXPECT_EQ(loner.steps(), 0u);
}

TEST(CensusSimulator, RejectsPopulationsWhosePairCountOverflows) {
  // n(n-1) must fit in a long long: kMaxPopulation is the last n that
  // does. The accepted case is only constructed, never stepped.
  const auto cp = core::unary_counting(2);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Count limit = sim::CensusSimulator::kMaxPopulation;
  const sim::CensusSimulator at_limit(
      *table, cp.protocol.initial_config({limit}), 1);
  EXPECT_EQ(at_limit.population(), limit);
  const core::Config over_limit = cp.protocol.initial_config({limit + 1});
  EXPECT_THROW(sim::CensusSimulator rejected(*table, over_limit, 1),
               std::invalid_argument);
}

TEST(DispatchHeuristic, PicksByPopulationAndStateCount) {
  using sim::SchedulerChoice;
  const auto plan = [](const sim::RunOptions& options, bool has_table,
                       std::size_t states, core::Count population) {
    const sim::SchedulerPlan p =
        sim::planned_scheduler(options, has_table, states, population);
    return std::make_pair(p.scheduler, p.shards);
  };
  const sim::RunOptions automatic;
  // No pair table: everything degrades to the count scheduler.
  EXPECT_EQ(plan(automatic, false, 5, 100),
            std::make_pair(SchedulerChoice::kCount, std::size_t{0}));
  // Small populations run the one-shard agent-array kernel.
  EXPECT_EQ(plan(automatic, true, 5, 100),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  // Small state space + large population: census path.
  EXPECT_EQ(plan(automatic, true, 5, 1 << 16),
            std::make_pair(SchedulerChoice::kCensus, std::size_t{0}));
  EXPECT_EQ(plan(automatic, true, 5, core::Count{1} << 30),
            std::make_pair(SchedulerChoice::kCensus, std::size_t{0}));
  // Large state space: census is out; the kernel shards once the agent
  // array outgrows the cache.
  EXPECT_EQ(plan(automatic, true, 100, 1 << 16),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  EXPECT_EQ(plan(automatic, true, 100, (core::Count{1} << 22) - 1),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  EXPECT_EQ(plan(automatic, true, 100, core::Count{1} << 22),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{8}));
  // Forcing overrides the heuristic but never conjures a pair table.
  sim::RunOptions forced;
  forced.scheduler = SchedulerChoice::kSharded;
  EXPECT_EQ(plan(forced, true, 5, 100),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  forced.shards = 4;
  EXPECT_EQ(plan(forced, true, 5, 100),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{4}));
  EXPECT_EQ(plan(forced, false, 5, 100),
            std::make_pair(SchedulerChoice::kCount, std::size_t{0}));
  forced.scheduler = SchedulerChoice::kCount;
  EXPECT_EQ(plan(forced, true, 5, core::Count{1} << 30),
            std::make_pair(SchedulerChoice::kCount, std::size_t{0}));
}

TEST(DispatchHeuristic, ForcedSchedulersAgreeOnOutcomes) {
  // Every scheduler shares the productive-step law, so forcing any of
  // them through the sweep -- the kernel at one and at two shards
  // included -- must reproduce the same convergence and correctness
  // verdicts on a protocol every path can run.
  const auto cp = core::unary_counting(3);
  const std::pair<sim::SchedulerChoice, std::size_t> arms[] = {
      {sim::SchedulerChoice::kSharded, 1},
      {sim::SchedulerChoice::kSharded, 2},
      {sim::SchedulerChoice::kCensus, 0},
      {sim::SchedulerChoice::kCount, 0},
  };
  for (const auto& [choice, shards] : arms) {
    sim::RunOptions options;
    options.scheduler = choice;
    options.shards = shards;
    const sim::ConvergenceStats stats =
        sim::measure_convergence(cp, {40}, 6, options);
    EXPECT_EQ(stats.converged, 6u) << static_cast<int>(choice) << "/" << shards;
    EXPECT_EQ(stats.correct, 6u) << static_cast<int>(choice) << "/" << shards;
    EXPECT_GT(stats.mean_steps, 0.0)
        << static_cast<int>(choice) << "/" << shards;
  }
}

TEST(DestructiveUnary, ComputesTheSamePredicate) {
  const auto cp = core::destructive_unary_counting(3);
  const sim::ConvergenceStats above = sim::measure_convergence(cp, {5}, 3);
  EXPECT_EQ(above.correct, 3u);
  const sim::ConvergenceStats below = sim::measure_convergence(cp, {2}, 3);
  EXPECT_EQ(below.correct, 3u);
}

// The count sampler's exact trajectory, pinned draw for draw: the
// census after a fixed budget, the steps to silence, the weight-cache
// recomputations and the silent census, for three seeds each on a
// wide net (Example 4.1, width 3) and a non-pairwise width-1/2 net.
// The expected values were recorded from the sampler as it stood
// before it read the protocol's compiled net directly; any change to
// transition order, the weight formula or the cache invalidation
// moves them.
TEST(CountSimulator, PinnedTrajectoriesForFixedSeeds) {
  struct Pin {
    std::uint64_t seed;
    core::Config mid;
    std::uint64_t steps;
    std::uint64_t weight_updates;
  };
  struct Case {
    core::ConstructedProtocol cp;
    core::Count input;
    std::uint64_t mid_steps;
    core::Config silent;
    std::vector<Pin> pins;
  };
  const std::vector<Case> cases = {
      {core::example_4_1(3), 40, 8, {0, 40},
       {{1, {18, 22}, 18, 54},
        {7, {20, 20}, 19, 57},
        {2024, {20, 20}, 19, 57}}},
      {core::destructive_unary_counting(4), 30, 25,
       {0, 22, 0, 0, 0, 1, 0, 0, 0, 7, 0},
       {{1, {0, 5, 1, 4, 0, 0, 0, 1, 0, 1, 18}, 79, 1228},
        {7, {2, 5, 3, 0, 0, 2, 1, 0, 0, 1, 16}, 77, 1223},
        {2024, {3, 4, 2, 1, 2, 0, 1, 0, 0, 1, 16}, 80, 1246}}},
  };
  for (const Case& c : cases) {
    for (const Pin& pin : c.pins) {
      SCOPED_TRACE(c.cp.family + " seed " + std::to_string(pin.seed));
      sim::CountSimulator simulator(
          c.cp.protocol, c.cp.protocol.initial_config({c.input}), pin.seed);
      EXPECT_EQ(simulator.run(c.mid_steps), c.mid_steps);
      EXPECT_EQ(simulator.census(), pin.mid);
      simulator.run(1000000);
      EXPECT_TRUE(simulator.silent());
      EXPECT_EQ(simulator.steps(), pin.steps);
      EXPECT_EQ(simulator.weight_updates(), pin.weight_updates);
      EXPECT_EQ(simulator.census(), c.silent);
    }
  }
}
