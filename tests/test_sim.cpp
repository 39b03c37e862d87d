// Random-scheduler simulation: silence detection, consensus summaries,
// convergence statistics, and seed determinism. Also pins the table /
// formatting / RNG utilities the benches print with.

#include <gtest/gtest.h>

#include "core/combinators.h"
#include "core/constructions.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"
#include "util/table.h"
#include "verify/stable.h"

namespace core = ppsc::core;
namespace sim = ppsc::sim;

TEST(RunToSilence, Example41Accepts) {
  const auto cp = core::example_4_1(3);
  const auto run = sim::run_to_silence(cp.protocol, {5});
  EXPECT_TRUE(run.silent);
  EXPECT_GT(run.steps, 0u);
  EXPECT_TRUE(run.final_output.exactly_one());
  EXPECT_FALSE(run.final_output.subset_of_zero());
}

TEST(RunToSilence, Example41RejectsImmediately) {
  // x < n: the initial configuration is already silent and all-zero.
  const auto cp = core::example_4_1(3);
  const auto run = sim::run_to_silence(cp.protocol, {2});
  EXPECT_TRUE(run.silent);
  EXPECT_EQ(run.steps, 0u);
  EXPECT_TRUE(run.final_output.subset_of_zero());
}

TEST(RunToSilence, StepBudgetIsRespected) {
  const auto cp = core::unary_counting(4);
  sim::RunOptions options;
  options.max_steps = 1;
  const auto run = sim::run_to_silence(cp.protocol, {16}, options);
  EXPECT_FALSE(run.silent);
  EXPECT_EQ(run.steps, 1u);
}

TEST(RunToSilence, DeterministicForFixedSeed) {
  const auto cp = core::example_4_2(3);
  sim::RunOptions options;
  options.seed = 1234;
  const auto a = sim::run_to_silence(cp.protocol, {4}, options);
  const auto b = sim::run_to_silence(cp.protocol, {4}, options);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.final_config, b.final_config);
}

TEST(MeasureConvergence, MajorityBothSides) {
  const auto maj = core::majority();
  const auto heavy_a = sim::measure_convergence(maj, {12, 3}, 5);
  EXPECT_EQ(heavy_a.runs, 5u);
  EXPECT_EQ(heavy_a.converged, 5u);
  EXPECT_EQ(heavy_a.correct, 5u);
  EXPECT_GT(heavy_a.mean_steps, 0.0);
  EXPECT_GE(heavy_a.max_steps_observed, heavy_a.mean_steps);

  const auto heavy_b = sim::measure_convergence(maj, {3, 12}, 5);
  EXPECT_EQ(heavy_b.correct, 5u);
}

TEST(MeasureConvergence, CountingFamiliesAtThreshold) {
  for (const auto& family : core::counting_families(4)) {
    const auto above = sim::measure_convergence(family, {6}, 3);
    EXPECT_EQ(above.correct, 3u) << family.family;
    const auto below = sim::measure_convergence(family, {3}, 3);
    EXPECT_EQ(below.correct, 3u) << family.family;
  }
}

TEST(MeasureConvergence, PinnedStatsForFixedSeedOnExample41) {
  // Regression pin: Example 4.1 is width n, so every run takes the
  // census sampler's count role regardless of the fast-path dispatch,
  // and must keep producing these exact statistics for this seed.
  const auto cp = core::example_4_1(3);
  sim::RunOptions options;
  options.seed = 2024;
  const auto stats = sim::measure_convergence(cp, {7}, 4, options);
  EXPECT_EQ(stats.runs, 4u);
  EXPECT_EQ(stats.converged, 4u);
  EXPECT_EQ(stats.correct, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_steps, 3.75);
  EXPECT_DOUBLE_EQ(stats.max_steps_observed, 4.0);
}

TEST(MeasureConvergence, EmptyPopulationIsVacuouslyCorrect) {
  // not(x >= 1) is true on the empty input, whose population is empty
  // (no leaders, no input agents): the silent empty run must score
  // correct, exactly as verify::check_input scores the same input --
  // the two engines pin one convention (vacuous = correct).
  const auto cp = core::negate(core::unary_counting(1));
  ASSERT_TRUE(cp.predicate({0}));
  ASSERT_EQ(core::Protocol::population(cp.protocol.initial_config({0})), 0);

  const auto stats = sim::measure_convergence(cp, {0}, 3);
  EXPECT_EQ(stats.converged, 3u);
  EXPECT_EQ(stats.correct, 3u);

  const auto verdict = ppsc::verify::check_input(cp.protocol, cp.predicate,
                                                 {0});
  EXPECT_TRUE(verdict.ok);
}

TEST(OutputSummary, UnanimousMatchesConsensusAndIsVacuous) {
  sim::OutputSummary empty;
  EXPECT_TRUE(empty.unanimous(true));
  EXPECT_TRUE(empty.unanimous(false));
  sim::OutputSummary ones;
  ones.has_one = true;
  EXPECT_TRUE(ones.unanimous(true));
  EXPECT_FALSE(ones.unanimous(false));
  sim::OutputSummary mixed;
  mixed.has_one = mixed.has_zero = true;
  EXPECT_FALSE(mixed.unanimous(true));
  EXPECT_FALSE(mixed.unanimous(false));
}

TEST(RunToSilence, WideTransitionsAlwaysReachExactSilence) {
  // Width-5 binomial weights are not exactly representable (their
  // computation divides by 3 and 5), so an accumulated total drifts
  // away from zero; silence must be detected from the exact
  // per-transition weights or runs fire disabled transitions and
  // drive counts negative. Regression over many seeds.
  const auto cp = core::example_4_1(5);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    sim::RunOptions options;
    options.seed = seed;
    options.max_steps = 1000000;
    const auto run = sim::run_to_silence(cp.protocol, {31}, options);
    ASSERT_TRUE(run.silent) << "seed " << seed;
    for (core::Count count : run.final_config) {
      ASSERT_GE(count, 0) << "seed " << seed;
    }
  }
  // Large populations make the early totals huge (~C(400,5)); the
  // drift bound and the debug assert must both be relative to that
  // peak, not to the shrunken totals near silence.
  sim::RunOptions options;
  options.max_steps = 1000000;
  const auto big = sim::run_to_silence(cp.protocol, {400}, options);
  ASSERT_TRUE(big.silent);
  for (core::Count count : big.final_config) {
    ASSERT_GE(count, 0);
  }
}

TEST(RunToSilence, IncrementalWeightsMatchBruteForce) {
  // The weight cache must not change trajectories: replay Example 4.2
  // step-for-step and compare against an independent run with the same
  // seed, plus the known exact silent outcome.
  const auto cp = core::example_4_2(3);
  sim::RunOptions options;
  options.seed = 12345;
  const auto a = sim::run_to_silence(cp.protocol, {5}, options);
  const auto b = sim::run_to_silence(cp.protocol, {5}, options);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.final_config, b.final_config);
  EXPECT_TRUE(a.silent);
  EXPECT_TRUE(a.final_output.unanimous(true));  // 5 >= 3
}

TEST(CensusTrace, GeometricScheduleAndConservation) {
  const auto cp = core::unary_counting(4);
  const auto trace =
      sim::record_census_trace(cp.protocol, {32}, 1000000, /*seed=*/11);
  EXPECT_TRUE(trace.converged);
  ASSERT_FALSE(trace.points.empty());
  EXPECT_EQ(trace.points.front().step, 0u);
  EXPECT_EQ(trace.points.back().step, trace.total_steps);
  std::uint64_t previous = 0;
  bool first = true;
  for (const auto& point : trace.points) {
    if (!first) {
      EXPECT_GT(point.step, previous);
    }
    previous = point.step;
    first = false;
    // The output census partitions the (conserved) population.
    EXPECT_EQ(point.output_zero + point.output_one, 32);
    EXPECT_EQ(core::Protocol::population(point.census), 32);
  }
  // 32 >= 4: an accepting run ends in unanimous 1-consensus.
  EXPECT_EQ(trace.points.back().output_zero, 0);
  EXPECT_EQ(trace.points.back().output_one, 32);
}

TEST(CensusTrace, CountSchedulerFallback) {
  // Width-n nets cannot compile to a pair table; the trace must run the
  // census sampler's count role and still converge.
  const auto cp = core::example_4_1(3);
  const auto trace =
      sim::record_census_trace(cp.protocol, {5}, 1000000, /*seed=*/3);
  EXPECT_TRUE(trace.converged);
  EXPECT_EQ(trace.points.back().output_one, 5);
  EXPECT_EQ(trace.points.back().output_zero, 0);
}

TEST(TablePrinter, AlignsAndPads) {
  ppsc::util::TablePrinter table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer"});
  EXPECT_EQ(table.to_string(),
            "name    value\n"
            "-------------\n"
            "x       1\n"
            "longer  \n");
  EXPECT_THROW(table.add_row({"a", "b", "c"}), std::invalid_argument);
}

TEST(FormatDouble, SignificantDigits) {
  EXPECT_EQ(ppsc::util::format_double(3.14159, 3), "3.14");
  EXPECT_EQ(ppsc::util::format_double(1234567.0, 4), "1.235e+06");
  EXPECT_EQ(ppsc::util::format_double(0.0, 3), "0");
}

TEST(Xoshiro, DeterministicAndBounded) {
  ppsc::util::Xoshiro256 a(42);
  ppsc::util::Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  ppsc::util::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}
