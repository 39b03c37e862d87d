// Lemma 7.3 replacements: gcd reduction of multicycle Parikh images,
// sign-compatibility of the displacement, and the hypothesis /
// circulation negative cases.

#include <gtest/gtest.h>

#include "petri/control_net.h"
#include "solver/multicycle.h"

namespace petri = ppsc::petri;
namespace solver = ppsc::solver;
using petri::Config;
using petri::PetriNet;

namespace {

// Two controls, three edges; edge 2 is a self-loop whose underlying
// transition creates one token (the toggle_pump control net of E9).
petri::ControlStateNet sample_cnet() {
  PetriNet base(1);
  base.add(Config{0}, Config{0});
  base.add(Config{0}, Config{0});
  base.add(Config{0}, Config{1});
  petri::ControlStateNet cnet(base, 2);
  cnet.add_edge(0, 0, 1);
  cnet.add_edge(1, 1, 0);
  cnet.add_edge(0, 2, 0);
  return cnet;
}

}  // namespace

TEST(SmallMulticycle, GcdReductionPreservesSupportAndSigns) {
  const auto cnet = sample_cnet();
  const std::vector<std::uint64_t> phi{128, 128, 64};
  const auto small = solver::small_multicycle(cnet, phi, 64);
  ASSERT_TRUE(small.has_value());
  EXPECT_EQ(small->parikh, (std::vector<std::uint64_t>{2, 2, 1}));
  EXPECT_EQ(small->length, 5u);
  ASSERT_TRUE(small->walk.has_value());
  EXPECT_EQ(small->walk->size(), 5u);
  // Displacement scales by 1/gcd: signs match the original.
  const auto big_delta = cnet.displacement(phi);
  const auto small_delta = cnet.displacement(small->parikh);
  ASSERT_EQ(big_delta.size(), small_delta.size());
  for (std::size_t p = 0; p < big_delta.size(); ++p) {
    EXPECT_EQ(big_delta[p] > 0, small_delta[p] > 0);
    EXPECT_EQ(big_delta[p] < 0, small_delta[p] < 0);
  }
}

TEST(SmallMulticycle, HypothesisAndCirculationNegatives) {
  const auto cnet = sample_cnet();
  // Some used edge occurs fewer than k times.
  EXPECT_FALSE(solver::small_multicycle(cnet, {128, 128, 32}, 64).has_value());
  // Not a circulation: flow unbalanced at both controls.
  EXPECT_FALSE(solver::small_multicycle(cnet, {64, 0, 0}, 64).has_value());
  // Empty multicycle.
  EXPECT_FALSE(solver::small_multicycle(cnet, {0, 0, 0}, 1).has_value());
}
