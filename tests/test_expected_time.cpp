// Exact expected interaction counts: hand-solved chains (including a
// cyclic one that exercises the per-SCC solver), truncation and
// singularity reporting, and exact-vs-sampled agreement.

#include <gtest/gtest.h>

#include <cmath>

#include "core/constructions.h"
#include "core/protocol.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"

namespace core = ppsc::core;
namespace sim = ppsc::sim;

namespace {

// Two states {X, Y}; t1: X+X -> X+Y, t2: X+Y -> Y+Y, t3: X+Y -> X+X.
// t3 makes the chain cyclic, so the expectation genuinely depends on
// the instantiation weights, not just on path lengths.
core::Protocol cyclic_chain() {
  core::ProtocolBuilder b;
  const std::size_t X = b.add_state("X", false);
  const std::size_t Y = b.add_state("Y", true);
  b.add_input(X);
  b.add_rule("t1", {{X, 2}}, {{X, 1}, {Y, 1}});
  b.add_rule("t2", {{X, 1}, {Y, 1}}, {{Y, 2}});
  b.add_rule("t3", {{X, 1}, {Y, 1}}, {{X, 2}});
  return b.build();
}

}  // namespace

TEST(ExpectedTime, HandSolvableTwoAgentChain) {
  // From {X:2}: fire t1 to {1,1}; there t2 (weight 1) absorbs into
  // {0,2} and t3 (weight 1) loops back to {2,0}. Hand-solving
  //   E{2,0} = 1 + E{1,1},  E{1,1} = 1 + (1/2) E{2,0}
  // gives E{1,1} = 3 and E{2,0} = 4.
  const core::Protocol protocol = cyclic_chain();
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(protocol, {2});
  EXPECT_TRUE(result.computed);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.reachable_configs, 3u);
  EXPECT_NEAR(result.expected_steps, 4.0, 1e-9);
}

TEST(ExpectedTime, HandSolvableThreeAgentChain) {
  // From {X:3} the weights differ per configuration: at {2,1} t1 has
  // weight C(2,2) = 1 while t2 and t3 have weight 2 each. Hand-solving
  //   E{3,0} = 1 + E{2,1}
  //   E{2,1} = 1 + (3/5) E{1,2} + (2/5) E{3,0}
  //   E{1,2} = 1 + (1/2) E{2,1}
  // gives E{2,1} = 20/3 and E{3,0} = 23/3.
  const core::Protocol protocol = cyclic_chain();
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(protocol, {3});
  EXPECT_TRUE(result.computed);
  EXPECT_EQ(result.reachable_configs, 4u);
  EXPECT_NEAR(result.expected_steps, 23.0 / 3.0, 1e-9);
}

TEST(ExpectedTime, AlreadySilentInitialConfig) {
  // Example 4.1 below threshold: no transition is ever enabled.
  const auto cp = core::example_4_1(3);
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(cp.protocol, {2});
  EXPECT_TRUE(result.computed);
  EXPECT_EQ(result.reachable_configs, 1u);
  EXPECT_DOUBLE_EQ(result.expected_steps, 0.0);
}

TEST(ExpectedTime, ReportsTruncation) {
  const auto cp = core::unary_counting(3);
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(cp.protocol, {8}, 10);
  EXPECT_FALSE(result.computed);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.reachable_configs, 10u);
}

TEST(ExpectedTime, SingularWhenSilenceIsUnreachable) {
  // {X:2} <-> {X:1, Y:1} forever: no silent configuration is
  // reachable, the expectation is infinite, and the linear system is
  // singular -- reported as not computed, not as a bogus number.
  core::ProtocolBuilder b;
  const std::size_t X = b.add_state("X", false);
  const std::size_t Y = b.add_state("Y", true);
  b.add_input(X);
  b.add_rule("split", {{X, 2}}, {{X, 1}, {Y, 1}});
  b.add_rule("join", {{X, 1}, {Y, 1}}, {{X, 2}});
  const core::Protocol protocol = b.build();
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(protocol, {2});
  EXPECT_FALSE(result.computed);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.reachable_configs, 2u);
}

TEST(ExpectedTime, MatchesSampledMeanOnSmallPopulations) {
  // Populations <= 6: the exact expectation and the sampling
  // simulator's mean must agree within standard error (fixed seeds, so
  // the margins are deterministic; they sit near 3 sigma).
  const auto belief = core::threshold_belief(3);
  const sim::ExpectedTimeResult belief_exact =
      sim::expected_interactions_to_silence(belief.protocol, {6});
  ASSERT_TRUE(belief_exact.computed);
  const sim::ConvergenceStats belief_sampled =
      sim::measure_convergence_parallel(belief, {6}, 400);
  EXPECT_EQ(belief_sampled.converged, 400u);
  EXPECT_NEAR(belief_sampled.mean_steps, belief_exact.expected_steps,
              0.15 * belief_exact.expected_steps);

  const auto maj = core::majority();
  const sim::ExpectedTimeResult maj_exact =
      sim::expected_interactions_to_silence(maj.protocol, {3, 2});
  ASSERT_TRUE(maj_exact.computed);
  const sim::ConvergenceStats maj_sampled =
      sim::measure_convergence_parallel(maj, {3, 2}, 400);
  EXPECT_EQ(maj_sampled.converged, 400u);
  EXPECT_NEAR(maj_sampled.mean_steps, maj_exact.expected_steps,
              0.15 * maj_exact.expected_steps);
}
