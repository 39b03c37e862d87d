// Exact expected interaction counts: hand-solved chains (including a
// cyclic one that exercises the per-SCC solver), truncation and
// singularity reporting, exact-vs-sampled agreement, and the
// closed-form one-node step pinned to the elimination's doubles.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "core/constructions.h"
#include "core/protocol.h"
#include "petri/config.h"
#include "petri/petri_net.h"
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

TEST(ExpectedTime, DagChainsKeepTheirExactDoublesAndPivots) {
  // Pure DAG chains: every SCC is one node, solved in closed form. E
  // and the pivot count are pinned exactly, as the dense 1x1 solve
  // gave them (the repository benchmark checks the same four values).
  struct Case {
    core::ConstructedProtocol cp;
    core::Count agents;
    double expected_steps;
    std::uint64_t pivots;
    std::size_t sccs;
  };
  const Case cases[] = {
      {core::unary_counting(4), 8, 11.835062500569604, 102, 103},
      {core::unary_counting(4), 24, 37.159927427135813, 51473, 51474},
      {core::threshold_belief(6), 8, 27.6278041827326, 370, 371},
      {core::threshold_belief(6), 24, 80.923324754917061, 96422, 96423},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cp.predicate.name + " at " + std::to_string(c.agents));
    const sim::ExpectedTimeResult result =
        sim::expected_interactions_to_silence(c.cp.protocol, {c.agents});
    ASSERT_TRUE(result.computed);
    EXPECT_EQ(result.expected_steps, c.expected_steps);
    EXPECT_EQ(result.pivots, c.pivots);
    EXPECT_EQ(result.sccs, c.sccs);
    EXPECT_EQ(result.reachable_configs, c.sccs);
    EXPECT_EQ(result.largest_scc, 1u);
  }
}

TEST(ExpectedTime, CyclicChainsKeepTheirPivots) {
  // Blocks of 2+ nodes still go through the elimination; every
  // non-silent node is one pivot, wherever it is solved.
  const auto leader = core::example_4_2(8);
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(leader.protocol, {7});
  ASSERT_TRUE(result.computed);
  EXPECT_EQ(result.expected_steps, 9489.1541489408955);
  EXPECT_EQ(result.pivots, 203u);
  EXPECT_EQ(result.sccs, 43u);
  EXPECT_EQ(result.largest_scc, 56u);
}

// Places {X, Y}; t1: 2X -> 2Y, and t2: X + Y -> X + Y, an identity
// transition (a bare net may hold one; a protocol may not), so every
// node with an X and a Y carries a self-loop edge.
ppsc::petri::PetriNet self_loop_net() {
  ppsc::petri::PetriNet net(2);
  net.add(ppsc::petri::Config{2, 0}, ppsc::petri::Config{0, 2});
  net.add(ppsc::petri::Config{1, 1}, ppsc::petri::Config{1, 1});
  return net;
}

TEST(ExpectedTime, SingletonSccWithASelfLoopIsGeometric) {
  // From {4, 0}: t1 (weight 6) to {2, 2}; there t1 has weight 1 and
  // the self-loop t2 weight 4, so {2, 2} is a one-node SCC that exits
  // to the silent {0, 4} with probability 1/5 per step:
  //   E{2,2} = 1 / (1 - 4/5) = 5,  E{4,0} = 1 + E{2,2} = 6.
  // The closed form does the elimination's long-double arithmetic, so
  // E is that expression exactly, not just near it.
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(self_loop_net(), {4, 0});
  ASSERT_TRUE(result.computed);
  EXPECT_EQ(result.reachable_configs, 3u);
  EXPECT_EQ(result.sccs, 3u);
  EXPECT_EQ(result.largest_scc, 1u);
  EXPECT_EQ(result.pivots, 2u);
  const long double self = 4.0L / 5.0L;
  EXPECT_EQ(result.expected_steps,
            static_cast<double>(1.0L + 1.0L / (1.0L - self)));
  EXPECT_NEAR(result.expected_steps, 6.0, 1e-12);
}

TEST(ExpectedTime, NodeWhoseOnlyEdgeIsASelfLoopStaysUncomputed) {
  // From {3, 0}: t1 (weight 3) to {1, 2}, where only the self-loop is
  // enabled. Silence is unreachable, 1 - p_ii = 0, and the result is
  // uncomputed rather than a division by zero.
  const sim::ExpectedTimeResult result =
      sim::expected_interactions_to_silence(self_loop_net(), {3, 0});
  EXPECT_FALSE(result.computed);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.reachable_configs, 2u);
  EXPECT_EQ(result.expected_steps, 0.0);
}
