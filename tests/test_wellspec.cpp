// verify/wellspec: schedule-independent consensus extraction,
// differentially tested against the predicate-given checker in
// verify/stable.h on the counting families, plus the ill-specified
// rejection path and the empty-population convention.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/constructions.h"
#include "core/protocol.h"
#include "petri/reachability.h"
#include "verify/stable.h"
#include "verify/wellspec.h"

namespace core = ppsc::core;
namespace verify = ppsc::verify;

namespace {

// The wellspec checker, told nothing, must extract exactly the values
// the predicate-given checker verifies consensus against.
void expect_extraction_matches(const core::ConstructedProtocol& cp,
                               core::Count bound) {
  const auto wellspec =
      verify::check_well_specification_up_to(cp.protocol, bound);
  EXPECT_TRUE(wellspec.verified()) << cp.family;
  const auto stable = verify::check_up_to(cp.protocol, cp.predicate, bound);
  ASSERT_EQ(wellspec.verdicts.size(), stable.verdicts.size()) << cp.family;
  for (std::size_t i = 0; i < wellspec.verdicts.size(); ++i) {
    const auto& verdict = wellspec.verdicts[i];
    ASSERT_EQ(verdict.input, stable.verdicts[i].input) << cp.family;
    EXPECT_TRUE(stable.verdicts[i].ok) << cp.family;
    ASSERT_TRUE(verdict.value.has_value()) << cp.family;
    if (core::Protocol::population(
            cp.protocol.initial_config(verdict.input)) == 0) {
      // Empty population: stable.h passes vacuously, wellspec extracts
      // false by convention.
      EXPECT_FALSE(*verdict.value) << cp.family;
    } else {
      EXPECT_EQ(*verdict.value, cp.predicate(verdict.input))
          << cp.family << " input " << verdict.input[0];
    }
  }
}

core::Protocol racy_consensus() {
  core::ProtocolBuilder builder;
  builder.state("i", core::Output::kZero);
  builder.state("Y", core::Output::kOne);
  builder.state("N", core::Output::kZero);
  builder.initial("i");
  builder.rule("i + i -> Y + Y");
  builder.rule("i + i -> N + N");
  builder.rule("Y + i -> Y + Y");
  builder.rule("N + i -> N + N");
  return builder.build();
}

}  // namespace

TEST(WellSpec, DifferentialOnCountingFamilies) {
  expect_extraction_matches(core::unary_counting(3), 5);
  expect_extraction_matches(core::binary_counting(4), 6);
  expect_extraction_matches(core::modulo_counting(3, 1), 6);
}

TEST(WellSpec, WeightedThresholdMatchesPredicate) {
  const auto cp = core::weighted_threshold({1, 2}, 3);
  EXPECT_EQ(cp.protocol.num_states(), 4u);
  EXPECT_EQ(cp.protocol.input_arity(), 2u);
  const auto result = verify::check_well_specification_up_to(cp.protocol, 3);
  EXPECT_TRUE(result.verified());
  for (const auto& verdict : result.verdicts) {
    ASSERT_TRUE(verdict.value.has_value());
    const bool expected = core::Protocol::population(cp.protocol.initial_config(
                              verdict.input)) != 0 &&
                          cp.predicate(verdict.input);
    EXPECT_EQ(*verdict.value, expected)
        << "input (" << verdict.input[0] << ", " << verdict.input[1] << ")";
  }
}

TEST(WellSpec, WeightedThresholdRejectsBadArguments) {
  EXPECT_THROW(core::weighted_threshold({}, 3), std::invalid_argument);
  EXPECT_THROW(core::weighted_threshold({1, -1}, 3), std::invalid_argument);
  EXPECT_THROW(core::weighted_threshold({1}, 0), std::invalid_argument);
}

TEST(WellSpec, RacyConsensusIsRejectedExactlyAboveOneAgent) {
  const core::Protocol racy = racy_consensus();
  const auto result = verify::check_well_specification_up_to(racy, 5);
  EXPECT_FALSE(result.verified());
  ASSERT_EQ(result.verdicts.size(), 6u);
  for (const auto& verdict : result.verdicts) {
    const core::Count n = verdict.input[0];
    if (n <= 1) {
      // 0 agents: false by convention; 1 lone agent: stuck on i (0).
      ASSERT_TRUE(verdict.value.has_value()) << "input " << n;
      EXPECT_FALSE(*verdict.value) << "input " << n;
    } else {
      // Two or more agents race to all-Y or all-N.
      EXPECT_FALSE(verdict.value.has_value()) << "input " << n;
      EXPECT_FALSE(verdict.detail.empty()) << "input " << n;
    }
  }
}

TEST(WellSpec, EmptyPopulationComputesFalse) {
  const auto verdict =
      verify::classify_input(core::unary_counting(2).protocol, {0});
  ASSERT_TRUE(verdict.value.has_value());
  EXPECT_FALSE(*verdict.value);
  EXPECT_EQ(verdict.reachable_configs, 1u);
}

TEST(WellSpec, ConfigCapErrorExplainsTheExploration) {
  const auto cp = core::example_4_1(3);
  verify::WellSpecOptions options;
  options.max_configs = 2;
  ppsc::petri::ExploreLimits limits;
  limits.max_nodes = options.max_configs;
  const auto graph = ppsc::petri::explore(
      cp.protocol.net(),
      {ppsc::petri::Config(cp.protocol.initial_config({4}))}, limits);
  ASSERT_TRUE(graph.truncated);
  try {
    verify::classify_input(cp.protocol, {4}, options);
    FAIL() << "the cap did not throw";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    const auto says = [&message](const std::string& part) {
      return message.find(part) != std::string::npos;
    };
    EXPECT_TRUE(says("exceeds 2 configurations (explored " +
                     ppsc::petri::describe(graph.stats) + ")"))
        << message;
    EXPECT_TRUE(says("frontier peak")) << message;
    EXPECT_TRUE(says("transitions tested per config")) << message;
  }
}

TEST(WellSpec, RejectsNegativeBound) {
  EXPECT_THROW(verify::check_well_specification_up_to(racy_consensus(), -1),
               std::invalid_argument);
}
