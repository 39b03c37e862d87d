// Boolean closure: predicate algebra, product cost accounting, and
// exhaustive verification of small composites.

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "verify/stable.h"

namespace core = ppsc::core;
namespace verify = ppsc::verify;

TEST(Negate, FlipsOutputsAndPredicate) {
  const auto cp = core::unary_counting(3);
  const auto neg = core::negate(cp);
  EXPECT_EQ(neg.protocol.num_states(), cp.protocol.num_states());
  ASSERT_EQ(neg.protocol.net().num_transitions(),
            cp.protocol.net().num_transitions());
  for (std::size_t t = 0; t < cp.protocol.net().num_transitions(); ++t) {
    EXPECT_EQ(neg.protocol.rule_name(t), cp.protocol.rule_name(t));
  }
  for (std::size_t q = 0; q < cp.protocol.num_states(); ++q) {
    EXPECT_NE(neg.protocol.output(q), cp.protocol.output(q));
  }
  EXPECT_TRUE(neg.predicate({2}));
  EXPECT_FALSE(neg.predicate({3}));
  EXPECT_EQ(neg.predicate.name, "not(x >= 3)");
}

TEST(Product, StateCountsMultiply) {
  const auto lhs = core::unary_counting(2);  // 6 states
  const auto rhs = core::modulo_counting(2, 1);  // 4 states
  const auto both = core::conjunction(lhs, rhs);
  EXPECT_EQ(both.protocol.num_states(),
            lhs.protocol.num_states() * rhs.protocol.num_states());
  EXPECT_EQ(both.protocol.width(), 2);
  // Predicate: x >= 2 and x odd.
  EXPECT_FALSE(both.predicate({1}));
  EXPECT_FALSE(both.predicate({2}));
  EXPECT_TRUE(both.predicate({3}));
  EXPECT_TRUE(both.predicate({5}));
}

TEST(Product, DisjunctionPredicate) {
  const auto either =
      core::disjunction(core::unary_counting(4), core::modulo_counting(3, 0));
  EXPECT_TRUE(either.predicate({3}));   // 3 mod 3 == 0
  EXPECT_TRUE(either.predicate({5}));   // 5 >= 4
  EXPECT_FALSE(either.predicate({2}));
}

TEST(Product, EmitsNoDuplicateTransitions) {
  // Symmetric operand rules must not be instantiated twice per
  // unordered pair of carried states.
  const auto both =
      core::conjunction(core::unary_counting(2), core::modulo_counting(2, 1));
  const auto& net = both.protocol.net();
  using ArcList = std::vector<std::pair<std::size_t, core::Count>>;
  const auto arcs = [](ppsc::util::Span<ppsc::petri::Arc> span) {
    ArcList out;
    for (const ppsc::petri::Arc& arc : span) {
      out.emplace_back(arc.place, arc.count);
    }
    return out;
  };
  std::set<std::pair<ArcList, ArcList>> seen;
  for (std::size_t t = 0; t < net.num_transitions(); ++t) {
    EXPECT_TRUE(seen.emplace(arcs(net.pre(t)), arcs(net.post(t))).second)
        << "duplicate transition " << both.protocol.rule_name(t);
  }
}

TEST(Product, RejectsLeaderfulAndWideOperands) {
  EXPECT_THROW(
      core::conjunction(core::example_4_2(2), core::unary_counting(2)),
      std::invalid_argument);
  // Example 4.1 has a width-n transition.
  EXPECT_THROW(
      core::conjunction(core::example_4_1(3), core::unary_counting(2)),
      std::invalid_argument);
}

TEST(Product, CompositesVerifyExhaustively) {
  const auto neg = core::negate(core::unary_counting(2));
  EXPECT_TRUE(
      verify::check_up_to(neg.protocol, neg.predicate, 4).verified());

  const auto both =
      core::conjunction(core::unary_counting(2), core::modulo_counting(2, 1));
  EXPECT_TRUE(
      verify::check_up_to(both.protocol, both.predicate, 5).verified());
}

TEST(Interval, PredicateAndVerification) {
  const auto cp = core::interval_counting(2, 4);
  EXPECT_EQ(cp.predicate.name, "2 <= x <= 4");
  EXPECT_FALSE(cp.predicate({1}));
  EXPECT_TRUE(cp.predicate({2}));
  EXPECT_TRUE(cp.predicate({4}));
  EXPECT_FALSE(cp.predicate({5}));
  EXPECT_THROW(core::interval_counting(0, 3), std::invalid_argument);
  EXPECT_THROW(core::interval_counting(4, 2), std::invalid_argument);
  EXPECT_TRUE(
      verify::check_up_to(cp.protocol, cp.predicate, 6).verified());
}
