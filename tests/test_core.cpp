// Shape and model invariants of the constructions: the resource counts
// the paper claims (states / width / leaders / transitions), the
// builder's rule validation, and its compilation into the net.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "core/protocol.h"
#include "util/rng.h"

namespace core = ppsc::core;

TEST(Protocol, BuilderAndInitialConfig) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  b.add_input(A);
  b.add_leaders(B, 2);
  b.add_rule("t", {{A, 1}, {B, 1}}, {{B, 2}});
  const core::Protocol p = b.build();
  EXPECT_EQ(p.num_states(), 2u);
  EXPECT_EQ(p.num_leaders(), 2);
  EXPECT_EQ(p.width(), 2);
  EXPECT_EQ(p.net().num_transitions(), 1u);
  const core::Config c = p.initial_config({3});
  EXPECT_EQ(c[A], 3);
  EXPECT_EQ(c[B], 2);
  EXPECT_EQ(core::Protocol::population(c), 5);
  EXPECT_THROW(p.initial_config({1, 2}), std::invalid_argument);
  EXPECT_THROW(p.initial_config({-1}), std::invalid_argument);
}

TEST(Protocol, BuilderRejectsUnknownStates) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  EXPECT_THROW(b.add_rule("t", {{A, 1}, {A + 1, 1}}, {{A, 2}}),
               std::invalid_argument);
  EXPECT_THROW(b.add_pair_rule("t", A, A, A, A + 1), std::invalid_argument);
  EXPECT_THROW(b.add_input(A + 1), std::invalid_argument);
  EXPECT_THROW(b.add_leaders(A + 1, 1), std::invalid_argument);
  EXPECT_THROW(b.add_leaders(A, -2), std::invalid_argument);
}

TEST(Protocol, BuilderStringApiParsesPairRules) {
  core::ProtocolBuilder b;
  b.state("i", core::Output::kZero);
  b.state("Y", core::Output::kOne);
  b.initial("i");
  b.rule("i + i -> Y + Y");
  b.rule("  Y +  i ->Y+ Y ");  // whitespace is insignificant
  const core::Protocol p = b.build();
  EXPECT_EQ(p.num_states(), 2u);
  EXPECT_FALSE(p.output(0));
  EXPECT_TRUE(p.output(1));
  EXPECT_EQ(p.input_arity(), 1u);
  EXPECT_EQ(p.input_state(0), 0u);
  ASSERT_EQ(p.net().num_transitions(), 2u);
  EXPECT_EQ(p.net().transition(0).pre, (std::vector<core::Count>{2, 0}));
  EXPECT_EQ(p.net().transition(0).post, (std::vector<core::Count>{0, 2}));
  EXPECT_EQ(p.net().transition(1).pre, (std::vector<core::Count>{1, 1}));
  EXPECT_EQ(p.net().transition(1).post, (std::vector<core::Count>{0, 2}));
}

TEST(Protocol, BuilderStringApiRejectsBadSpecs) {
  core::ProtocolBuilder b;
  b.state("i", core::Output::kZero);
  b.state("Y", core::Output::kOne);
  EXPECT_THROW(b.initial("missing"), std::invalid_argument);
  EXPECT_THROW(b.rule("i + i -> Y + Z"), std::invalid_argument);  // unknown
  EXPECT_THROW(b.rule("i + i Y + Y"), std::invalid_argument);  // no arrow
  EXPECT_THROW(b.rule("i -> Y"), std::invalid_argument);  // not a pair
  EXPECT_THROW(b.rule("i + i -> Y"), std::invalid_argument);
}

TEST(Protocol, BuilderRejectsUseAfterBuild) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  b.add_input(A);
  b.build();
  EXPECT_THROW(b.add_state("B", true), std::logic_error);
  EXPECT_THROW(b.add_input(A), std::logic_error);
  EXPECT_THROW(b.add_leaders(A, 1), std::logic_error);
  EXPECT_THROW(b.build(), std::logic_error);
}

// build() checks what petri::PetriNet allows but a protocol must not
// have, and names the offending rule in the message.
TEST(ProtocolBuilder, RejectsInvalidRulesNamingThem) {
  using Arcs = std::vector<std::pair<std::size_t, core::Count>>;
  const auto build_error = [](const Arcs& pre, const Arcs& post) {
    core::ProtocolBuilder b;
    b.add_state("A", false);
    b.add_state("B", true);
    b.add_rule("ok", {{0, 1}, {1, 1}}, {{1, 2}});
    b.add_rule("culprit", pre, post);
    try {
      b.build();
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  };
  const auto expect_error = [&](const Arcs& pre, const Arcs& post,
                                const std::string& reason) {
    const std::string message = build_error(pre, post);
    EXPECT_NE(message.find("'culprit'"), std::string::npos) << message;
    EXPECT_NE(message.find(reason), std::string::npos) << message;
  };
  expect_error({{0, -1}}, {{1, -1}}, "negative multiplicity");
  // Repeated entries are summed before the checks: 2 - 3 = -1.
  expect_error({{0, 2}, {0, -3}}, {{1, 1}}, "negative multiplicity");
  expect_error({{0, 1}}, {{1, 2}},
               "not conservative (consumes 1, produces 2)");
  expect_error({}, {}, "empty");
  expect_error({{0, 1}, {0, -1}}, {}, "empty");
  expect_error({{1, 1}, {0, 1}}, {{0, 1}, {1, 1}}, "identity");

  core::ProtocolBuilder b;
  b.add_state("A", false);
  b.add_state("B", true);
  // Unsorted, repeated entries merge into {A: 2} -> {B: 2}.
  b.add_rule("swap", {{0, 1}, {0, 1}}, {{1, 2}});
  const core::Protocol p = b.build();
  ASSERT_EQ(p.net().num_transitions(), 1u);
  EXPECT_EQ(p.rule_name(0), "swap");
  EXPECT_EQ(p.net().transition(0).pre, (std::vector<core::Count>{2, 0}));
  EXPECT_EQ(p.net().transition(0).post, (std::vector<core::Count>{0, 2}));
}

namespace {

std::vector<std::pair<std::size_t, core::Count>> arcs(
    ppsc::util::Span<ppsc::petri::Arc> span) {
  std::vector<std::pair<std::size_t, core::Count>> out;
  for (const ppsc::petri::Arc& arc : span) {
    out.emplace_back(arc.place, arc.count);
  }
  return out;
}

}  // namespace

// The builder compiles its sparse rules straight into the net; the
// dense add(Config, Config) is the reference spelling. Both must yield
// the same net: dense pre/post, sparse pre and delta lists (checked
// against lists derived here from the dense vectors), and the same
// enabled transitions on random configurations.
TEST(ProtocolBuilder, CompiledNetMatchesDenseRebuild) {
  std::vector<core::ConstructedProtocol> protocols = {
      core::example_4_1(4),
      core::example_4_2(3),
      core::unary_counting(4),
      core::destructive_unary_counting(3),
      core::binary_counting(8),
      core::threshold_belief(5),
      core::modulo_counting(3, 1),
      core::weighted_threshold({2, 1}, 4),
      core::majority(),
      core::negate(core::example_4_1(3)),
      core::conjunction(core::unary_counting(2), core::modulo_counting(2, 1)),
      core::interval_counting(2, 3),
  };
  ppsc::util::Xoshiro256 rng(2024);
  for (const core::ConstructedProtocol& cp : protocols) {
    SCOPED_TRACE(cp.family);
    const ppsc::petri::PetriNet& net = cp.protocol.net();
    ppsc::petri::PetriNet dense(net.num_states());
    for (const ppsc::petri::Transition& t : net.transitions()) {
      dense.add(t.pre, t.post);
    }
    ASSERT_EQ(dense.num_transitions(), net.num_transitions());
    for (std::size_t t = 0; t < net.num_transitions(); ++t) {
      const ppsc::petri::Transition& tr = net.transition(t);
      EXPECT_EQ(dense.transition(t).pre, tr.pre);
      EXPECT_EQ(dense.transition(t).post, tr.post);
      std::vector<std::pair<std::size_t, core::Count>> pre;
      std::vector<std::pair<std::size_t, core::Count>> delta;
      for (std::size_t q = 0; q < net.num_states(); ++q) {
        if (tr.pre[q] != 0) pre.emplace_back(q, tr.pre[q]);
        if (tr.post[q] != tr.pre[q]) {
          delta.emplace_back(q, tr.post[q] - tr.pre[q]);
        }
      }
      EXPECT_EQ(arcs(net.pre(t)), pre);
      EXPECT_EQ(arcs(dense.pre(t)), pre);
      EXPECT_EQ(arcs(net.delta(t)), delta);
      EXPECT_EQ(arcs(dense.delta(t)), delta);
    }
    std::vector<std::size_t> from_net;
    std::vector<std::size_t> from_dense;
    for (int trial = 0; trial < 64; ++trial) {
      ppsc::petri::Config config(net.num_states());
      for (std::size_t q = 0; q < config.size(); ++q) {
        config[q] =
            rng.below(2) == 0 ? 0 : static_cast<core::Count>(rng.below(4));
      }
      net.enabled_transitions(config, from_net);
      dense.enabled_transitions(config, from_dense);
      EXPECT_EQ(from_net, from_dense);
      std::vector<std::size_t> scanned;
      for (std::size_t t = 0; t < net.num_transitions(); ++t) {
        if (config.covers(net.transition(t).pre)) scanned.push_back(t);
      }
      EXPECT_EQ(from_net, scanned);
    }
  }
}

TEST(Example41, PaperShape) {
  for (core::Count n : {1, 2, 5, 9}) {
    const auto cp = core::example_4_1(n);
    EXPECT_EQ(cp.protocol.num_states(), 2u) << "n=" << n;
    EXPECT_EQ(cp.protocol.width(), n) << "n=" << n;
    EXPECT_EQ(cp.protocol.num_leaders(), 0) << "n=" << n;
    EXPECT_EQ(cp.protocol.net().num_transitions(),
              static_cast<std::size_t>(n))
        << "n=" << n;
    EXPECT_FALSE(cp.predicate({n - 1}));
    EXPECT_TRUE(cp.predicate({n}));
  }
}

TEST(Example42, PaperShape) {
  for (core::Count n : {1, 4, 7}) {
    const auto cp = core::example_4_2(n);
    EXPECT_EQ(cp.protocol.num_states(), 6u) << "n=" << n;
    EXPECT_EQ(cp.protocol.width(), 2) << "n=" << n;
    EXPECT_EQ(cp.protocol.num_leaders(), n) << "n=" << n;
    EXPECT_EQ(cp.protocol.net().num_transitions(), 5u) << "n=" << n;
  }
}

TEST(CountingFamilies, StateCountShapes) {
  // unary: 2(n+1) states; binary: log2(n)+2; belief: n; and the two
  // O(1)-state examples from the paper.
  EXPECT_EQ(core::unary_counting(8).protocol.num_states(), 18u);
  EXPECT_EQ(core::binary_counting(8).protocol.num_states(), 5u);
  EXPECT_EQ(core::binary_counting(32).protocol.num_states(), 7u);
  EXPECT_EQ(core::threshold_belief(8).protocol.num_states(), 8u);
  EXPECT_THROW(core::binary_counting(6), std::invalid_argument);
  EXPECT_THROW(core::binary_counting(1), std::invalid_argument);

  const auto families = core::counting_families(8);
  ASSERT_EQ(families.size(), 5u);
  for (const auto& family : families) {
    EXPECT_EQ(family.protocol.input_arity(), 1u) << family.family;
    EXPECT_TRUE(family.predicate({8})) << family.family;
    EXPECT_FALSE(family.predicate({7})) << family.family;
  }
  // Only Example 4.1 pays width; only Example 4.2 pays leaders.
  EXPECT_EQ(core::counting_families(4)[0].protocol.width(), 2);
}

TEST(ModuloAndMajority, Predicates) {
  const auto mod = core::modulo_counting(5, 2);
  EXPECT_EQ(mod.protocol.num_states(), 7u);
  EXPECT_TRUE(mod.predicate({7}));
  EXPECT_FALSE(mod.predicate({10}));
  EXPECT_THROW(core::modulo_counting(1, 0), std::invalid_argument);
  EXPECT_THROW(core::modulo_counting(3, 3), std::invalid_argument);

  const auto maj = core::majority();
  EXPECT_EQ(maj.protocol.num_states(), 4u);
  EXPECT_EQ(maj.protocol.input_arity(), 2u);
  EXPECT_TRUE(maj.predicate({3, 2}));
  EXPECT_FALSE(maj.predicate({2, 2}));
  EXPECT_FALSE(maj.predicate({1, 3}));
}
