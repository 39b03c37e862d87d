// Exhaustive stable-computation checks: the paper's Example 4.1/4.2
// claims become machine-checked facts for small n, and deliberately
// broken protocols are reported as NO (negative-path coverage).

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/combinators.h"
#include "core/constructions.h"
#include "petri/reachability.h"
#include "verify/stable.h"

namespace core = ppsc::core;
namespace verify = ppsc::verify;

TEST(CheckUpTo, Example41StablyComputesCounting) {
  for (core::Count n = 1; n <= 6; ++n) {
    const auto cp = core::example_4_1(n);
    const auto result = verify::check_up_to(cp.protocol, cp.predicate, n + 3);
    EXPECT_TRUE(result.verified()) << "n=" << n;
    EXPECT_EQ(result.verdicts.size(), static_cast<std::size_t>(n + 4));
  }
}

TEST(CheckUpTo, Example41ReachabilityCounts) {
  // For x < n the initial configuration is already silent; for x >= n
  // the graph is the chain fired by t_n then t_1..t_{n-1}:
  // 1 + (x - n + 1) configurations.
  const auto cp = core::example_4_1(3);
  const auto result = verify::check_up_to(cp.protocol, cp.predicate, 5);
  ASSERT_EQ(result.verdicts.size(), 6u);
  EXPECT_EQ(result.verdicts[1].reachable_configs, 1u);  // x=1
  EXPECT_EQ(result.verdicts[2].reachable_configs, 1u);  // x=2
  EXPECT_EQ(result.verdicts[3].reachable_configs, 2u);  // x=3
  EXPECT_EQ(result.verdicts[4].reachable_configs, 3u);  // x=4
  EXPECT_EQ(result.verdicts[5].reachable_configs, 4u);  // x=5
}

TEST(CheckUpTo, MutatedExample41IsRejected) {
  // Same two states, but the wide transition fires after only n-1
  // agents -- the protocol now wrongly accepts x = n-1.
  const core::Count n = 3;
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  b.add_input(A);
  b.add_rule("t_bad", {{A, n - 1}}, {{B, n - 1}});
  b.add_rule("t1", {{B, 1}, {A, 1}}, {{B, 2}});
  const core::Protocol mutated = b.build();

  const auto result =
      verify::check_up_to(mutated, core::counting_predicate(n), n + 2);
  EXPECT_FALSE(result.verified());
  // x = 2 = n-1 is the offending input: it reaches consensus 1.
  EXPECT_TRUE(result.verdicts[1].ok);   // x=1 stays all-A
  EXPECT_FALSE(result.verdicts[2].ok);  // x=2 wrongly accepts
  EXPECT_FALSE(result.verdicts[2].detail.empty());
  EXPECT_TRUE(result.verdicts[3].ok);   // x=3 still accepts, correctly
}

TEST(CheckUpTo, OutputFlipIsRejected) {
  // Flipping all outputs (negate) while keeping the original predicate
  // must fail verification on both sides of the threshold.
  const auto cp = core::example_4_1(2);
  const auto flipped = core::negate(cp);
  const auto result =
      verify::check_up_to(flipped.protocol, cp.predicate, 4);
  EXPECT_FALSE(result.verified());
}

TEST(CheckUpTo, Example42StablyComputesCounting) {
  for (core::Count n = 1; n <= 4; ++n) {
    const auto cp = core::example_4_2(n);
    const auto result = verify::check_up_to(cp.protocol, cp.predicate, n + 2);
    EXPECT_TRUE(result.verified()) << "n=" << n;
  }
}

TEST(CheckUpTo, CountingFamiliesVerifySmall) {
  for (core::Count n : {2, 4}) {
    for (const auto& family : core::counting_families(n)) {
      const auto result =
          verify::check_up_to(family.protocol, family.predicate, n + 2);
      EXPECT_TRUE(result.verified()) << family.family << " n=" << n;
    }
  }
}

TEST(CheckUpTo, ModuloAndMajorityVerifySmall) {
  const auto mod = core::modulo_counting(3, 1);
  EXPECT_TRUE(
      verify::check_up_to(mod.protocol, mod.predicate, 7).verified());

  const auto maj = core::majority();
  const auto result = verify::check_up_to(maj.protocol, maj.predicate, 3);
  EXPECT_TRUE(result.verified());
  // (bound+1)^2 input vectors for the 2-dimensional predicate.
  EXPECT_EQ(result.verdicts.size(), 16u);
}

TEST(CheckUpTo, EmptyPopulationIsVacuouslyOk) {
  const auto cp = core::example_4_1(2);
  const auto verdict = verify::check_input(cp.protocol, cp.predicate, {0});
  EXPECT_TRUE(verdict.ok);
  EXPECT_EQ(verdict.reachable_configs, 1u);
}

TEST(CheckUpTo, ConfigCapThrows) {
  const auto cp = core::example_4_2(4);
  verify::CheckOptions options;
  options.max_configs = 3;
  EXPECT_THROW(verify::check_input(cp.protocol, cp.predicate, {5}, options),
               std::runtime_error);
}

TEST(CheckUpTo, ConfigCapErrorExplainsTheExploration) {
  // The truncation error carries the capped exploration's stats:
  // configs, frontier peak and transitions tested per config.
  const auto cp = core::example_4_1(3);
  verify::CheckOptions options;
  options.max_configs = 2;
  ppsc::petri::ExploreLimits limits;
  limits.max_nodes = options.max_configs;
  const auto graph = ppsc::petri::explore(
      cp.protocol.net(),
      {ppsc::petri::Config(cp.protocol.initial_config({4}))}, limits);
  ASSERT_TRUE(graph.truncated);
  try {
    verify::check_input(cp.protocol, cp.predicate, {4}, options);
    FAIL() << "the cap did not throw";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    const auto says = [&message](const std::string& part) {
      return message.find(part) != std::string::npos;
    };
    EXPECT_TRUE(says("exceeds 2 configurations")) << message;
    EXPECT_TRUE(says("2 configs, frontier peak " +
                     std::to_string(graph.stats.frontier_peak)))
        << message;
    EXPECT_TRUE(says(" transitions tested per config")) << message;
    EXPECT_TRUE(says(ppsc::petri::describe(graph.stats))) << message;
  }
}

TEST(CheckUpTo, ConfigCapBoundaryIsExact) {
  // The limit is checked before a new config is recorded, so a cap of
  // exactly the reachable count succeeds and one less throws.
  const auto cp = core::example_4_1(3);
  const auto exact = verify::check_input(cp.protocol, cp.predicate, {4});
  ASSERT_TRUE(exact.ok);
  ASSERT_EQ(exact.reachable_configs, 3u);

  verify::CheckOptions options;
  options.max_configs = 3;
  EXPECT_NO_THROW(
      verify::check_input(cp.protocol, cp.predicate, {4}, options));
  options.max_configs = 2;
  EXPECT_THROW(verify::check_input(cp.protocol, cp.predicate, {4}, options),
               std::runtime_error);
}
