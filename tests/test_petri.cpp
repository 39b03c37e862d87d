// The petri/ engines against hand-computed nets: coverability bases,
// Karp-Miller omega-markings, Theorem 6.1 bottom witnesses, control
// nets with Euler total cycles, and the width-2 compilation -- each
// with a negative case.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "petri/bottom.h"
#include "petri/control_net.h"
#include "petri/coverability.h"
#include "petri/euler.h"
#include "petri/karp_miller.h"
#include "petri/reachability.h"
#include "petri/width_reduction.h"
#include "util/rng.h"

namespace petri = ppsc::petri;
using petri::Config;
using petri::PetriNet;

namespace {

// a -> b -> c chain.
PetriNet chain3() {
  PetriNet net(3);
  net.add(Config{1, 0, 0}, Config{0, 1, 0});
  net.add(Config{0, 1, 0}, Config{0, 0, 1});
  return net;
}

// a <-> b toggle.
PetriNet toggle() {
  PetriNet net(2);
  net.add(Config{1, 0}, Config{0, 1});
  net.add(Config{0, 1}, Config{1, 0});
  return net;
}

// a -> a + b pump (non-conservative).
PetriNet pump() {
  PetriNet net(2);
  net.add(Config{1, 0}, Config{1, 1});
  return net;
}

// Toggle on {a, b} plus a pump a -> a + c.
PetriNet toggle_pump() {
  PetriNet net(3);
  net.add(Config{1, 0, 0}, Config{0, 1, 0});
  net.add(Config{0, 1, 0}, Config{1, 0, 0});
  net.add(Config{1, 0, 0}, Config{1, 0, 1});
  return net;
}

}  // namespace

TEST(PetriConfig, UnitRestrictAndNorms) {
  const Config u = Config::unit(4, 2, 5);
  EXPECT_EQ(u, (Config{0, 0, 5, 0}));
  EXPECT_EQ(u.norm_inf(), 5);
  EXPECT_EQ(u.total(), 5);
  EXPECT_TRUE(u.covers(Config{0, 0, 3, 0}));
  EXPECT_FALSE(u.covers(Config{1, 0, 0, 0}));
  EXPECT_EQ(u.restrict({false, true, true, false}), (Config{0, 5}));
}

TEST(PetriNet, ProtocolNetSpansEveryState) {
  const auto cp = ppsc::core::example_4_2(3);
  const PetriNet& net = cp.protocol.net();
  EXPECT_EQ(net.num_states(), cp.protocol.num_states());
  EXPECT_EQ(net.num_transitions(), 5u);
  EXPECT_EQ(net.max_width(), cp.protocol.width());
  EXPECT_EQ(net.norm_inf(), 2);  // rally produces F + F
}

TEST(PetriNet, RestrictKeepsOnlySupportedTransitions) {
  // Restricting toggle_pump to {a, b} drops the pump (it touches c).
  const PetriNet restricted = toggle_pump().restrict({true, true, false});
  EXPECT_EQ(restricted.num_states(), 2u);
  EXPECT_EQ(restricted.num_transitions(), 2u);
  // Projection keeps all three, truncated; indices preserved.
  const PetriNet projected = toggle_pump().project({true, true, false});
  EXPECT_EQ(projected.num_transitions(), 3u);
  EXPECT_EQ(projected.transition(2).pre, (Config{1, 0}));
  EXPECT_EQ(projected.transition(2).post, (Config{1, 0}));
}

TEST(PetriNet, SparseAddValidatesItsArcs) {
  PetriNet net(3);
  using Arcs = std::vector<petri::Arc>;
  // Places must increase, stay below the dimension, and carry counts > 0.
  EXPECT_THROW(net.add(Arcs{{1, 1}, {0, 1}}, Arcs{{2, 2}}),
               std::invalid_argument);
  EXPECT_THROW(net.add(Arcs{{0, 1}, {0, 1}}, Arcs{{2, 2}}),
               std::invalid_argument);
  EXPECT_THROW(net.add(Arcs{{3, 1}}, Arcs{}), std::invalid_argument);
  EXPECT_THROW(net.add(Arcs{{0, 0}}, Arcs{}), std::invalid_argument);
  EXPECT_THROW(net.add(Config{1, 0}, Config{0, 1, 0}), std::invalid_argument);
  EXPECT_THROW(net.add(Config{-1, 0, 0}, Config{0, 0, 0}),
               std::invalid_argument);
  EXPECT_EQ(net.num_transitions(), 0u);
  // A valid sparse rule compiles like its dense spelling: a + b -> 2c.
  net.add(Arcs{{0, 1}, {1, 1}}, Arcs{{2, 2}});
  EXPECT_EQ(net.transition(0).pre, (Config{1, 1, 0}));
  EXPECT_EQ(net.transition(0).post, (Config{0, 0, 2}));
  const Arcs delta(net.delta(0).begin(), net.delta(0).end());
  EXPECT_EQ(delta, (Arcs{{0, -1}, {1, -1}, {2, 2}}));
}

TEST(Explore, FiniteGraphIsExact) {
  const auto graph = petri::explore(chain3(), {Config{2, 0, 0}});
  EXPECT_FALSE(graph.truncated);
  // Multisets of 2 tokens over the chain: (2,0,0) reaches all 6.
  ASSERT_EQ(graph.size(), 6u);
  std::size_t silent = 0;
  while (silent < graph.size() && graph.config(silent) != Config{0, 0, 2}) {
    ++silent;
  }
  ASSERT_LT(silent, graph.size());
  const auto word = graph.word_to(silent);
  EXPECT_EQ(word.size(), 4u);
  EXPECT_EQ(petri::fire_word(chain3(), Config{2, 0, 0}, word),
            (Config{0, 0, 2}));
}

TEST(Explore, EnabledChecksCountOnlyIndexCandidates) {
  // chain3's transitions sit in the buckets of places a and b, so each
  // config tests one candidate per occupied place in {a, b}:
  // (2,0,0):1 (1,1,0):2 (1,0,1):1 (0,2,0):1 (0,1,1):1 (0,0,2):0.
  const auto graph = petri::explore(chain3(), {Config{2, 0, 0}});
  EXPECT_EQ(graph.stats.enabled_checks, 6u);
  EXPECT_EQ(graph.stats.edges, 6u);
}

TEST(Explore, EnabledChecksStayFarBelowADenseScan) {
  // A wide width-2 product: a dense scan tests every transition
  // against every config; the index must test under a tenth of that.
  const auto cp = ppsc::core::interval_counting(2, 4);
  const PetriNet& net = cp.protocol.net();
  const auto graph =
      petri::explore(net, {Config(cp.protocol.initial_config({5}))});
  ASSERT_FALSE(graph.truncated);
  EXPECT_LT(graph.stats.enabled_checks,
            graph.stats.configs * net.num_transitions() / 10);
}

namespace {

// Differential reference for explore(): the same BFS written as a
// dense scan over every transition in index order, with dense pre/post
// vectors and an ordered map -- none of the index machinery.
struct DenseGraph {
  std::vector<Config> nodes;
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> edges;
  std::vector<std::size_t> parent;
  std::vector<std::size_t> parent_transition;
  bool truncated = false;
  std::optional<std::size_t> stopped;
};

bool dense_enabled(const PetriNet& net, std::size_t t, const Config& config) {
  for (std::size_t p = 0; p < net.num_states(); ++p) {
    if (config[p] < net.transition(t).pre[p]) return false;
  }
  return true;
}

Config dense_fire(const PetriNet& net, std::size_t t, Config config) {
  for (std::size_t p = 0; p < net.num_states(); ++p) {
    config[p] += net.transition(t).post[p] - net.transition(t).pre[p];
  }
  return config;
}

DenseGraph dense_explore(const PetriNet& net, const std::vector<Config>& roots,
                         std::size_t max_nodes,
                         const std::function<bool(petri::ConfigView)>& stop) {
  DenseGraph graph;
  std::map<Config, std::size_t> ids;
  const auto intern = [&](const Config& config, std::size_t parent,
                          std::size_t transition) {
    ids.emplace(config, graph.nodes.size());
    graph.nodes.push_back(config);
    graph.edges.emplace_back();
    graph.parent.push_back(parent);
    graph.parent_transition.push_back(transition);
    if (!graph.stopped && stop && stop(config)) {
      graph.stopped = graph.nodes.size() - 1;
    }
  };
  for (const Config& root : roots) {
    if (ids.count(root) == 0) {
      intern(root, petri::ReachabilityGraph::kNoParent, 0);
    }
  }
  for (std::size_t head = 0; head < graph.nodes.size() && !graph.stopped;
       ++head) {
    const Config current = graph.nodes[head];
    for (std::size_t t = 0; t < net.num_transitions(); ++t) {
      if (!dense_enabled(net, t, current)) continue;
      const Config next = dense_fire(net, t, current);
      if (ids.count(next) == 0) {
        if (graph.nodes.size() >= max_nodes) {
          graph.truncated = true;
          continue;
        }
        intern(next, head, t);
      }
      graph.edges[head].emplace_back(ids.at(next), t);
      if (graph.stopped) break;
    }
  }
  return graph;
}

// explore()'s flat graph against the dense reference: the same nodes
// in the same order, each node's CSR range equal to its reference edge
// list, the same BFS tree and exits, and every stored hash equal to
// the from-scratch ConfigHash of its node (so the incremental update
// over the sparse delta never drifts).
void expect_matches_dense(const PetriNet& net,
                          const petri::ReachabilityGraph& graph,
                          const std::vector<Config>& roots,
                          std::size_t max_nodes,
                          const std::function<bool(petri::ConfigView)>& stop) {
  const DenseGraph reference = dense_explore(net, roots, max_nodes, stop);
  const std::size_t n = graph.size();
  ASSERT_EQ(n, reference.nodes.size());
  ASSERT_EQ(graph.dimension, net.num_states());
  ASSERT_EQ(graph.counts.size(), n * net.num_states());
  ASSERT_EQ(graph.edge_begin.size(), n + 1);
  EXPECT_EQ(graph.edge_begin.front(), 0u);
  EXPECT_EQ(graph.edge_begin.back(), graph.edges.size());
  for (std::size_t u = 0; u < n; ++u) {
    ASSERT_EQ(graph.config(u), reference.nodes[u]) << "node " << u;
    ASSERT_EQ(graph.hashes[u], petri::ConfigHash::of(graph.node(u)))
        << "node " << u;
    ASSERT_EQ(graph.hashes[u], petri::ConfigHash{}(reference.nodes[u]));
    ASSERT_LE(graph.edge_begin[u], graph.edge_begin[u + 1]);
    std::vector<std::pair<std::size_t, std::size_t>> got;
    got.reserve(graph.out_edges(u).size());
    for (const petri::ReachEdge& e : graph.out_edges(u)) {
      got.emplace_back(e.target, e.transition);
    }
    EXPECT_EQ(got, reference.edges[u]) << "node " << u;
  }
  EXPECT_EQ(graph.parent, reference.parent);
  EXPECT_EQ(graph.parent_transition, reference.parent_transition);
  EXPECT_EQ(graph.truncated, reference.truncated);
  EXPECT_EQ(graph.stopped, reference.stopped);
  EXPECT_EQ(graph.stats.configs, n);
  EXPECT_EQ(graph.stats.edges, graph.edges.size());
  EXPECT_LE(graph.stats.edges, graph.stats.enabled_checks);
}

// The shapes the enabledness index must get right.
enum Shape : std::size_t {
  kNonConservative,
  kEmptyPre,
  kWidth3Pre,
  kDoublePre,  // a + a -> ...
  kIdentity,
  kPairwise,
  kNumShapes,
};

Config random_tokens(ppsc::util::Xoshiro256& rng, std::size_t dimension,
                     std::size_t places, std::size_t tokens) {
  Config config(dimension);
  for (std::size_t i = 0; i < tokens; ++i) config[rng.below(places)] += 1;
  return config;
}

// A random net over 2..5 places whose last place no transition reads;
// `seen` tallies the shapes drawn.
PetriNet random_net(ppsc::util::Xoshiro256& rng,
                    std::array<std::size_t, kNumShapes>& seen) {
  const std::size_t dimension = 2 + rng.below(4);
  const std::size_t readable = dimension - 1;
  PetriNet net(dimension);
  const std::size_t transitions = 2 + rng.below(9);
  for (std::size_t i = 0; i < transitions; ++i) {
    const auto shape = static_cast<Shape>(rng.below(kNumShapes));
    ++seen[shape];
    const auto post = [&](std::size_t tokens) {
      return random_tokens(rng, dimension, dimension, tokens);
    };
    switch (shape) {
      case kNonConservative: {
        const std::size_t width = 1 + rng.below(2);
        net.add(random_tokens(rng, dimension, readable, width),
                post(rng.below(2) == 0 ? width - 1 : width + 1));
        break;
      }
      case kEmptyPre:
        net.add(Config(dimension), post(rng.below(2)));
        break;
      case kWidth3Pre:
        net.add(random_tokens(rng, dimension, readable, 3), post(3));
        break;
      case kDoublePre:
        net.add(Config::unit(dimension, rng.below(readable), 2), post(2));
        break;
      case kIdentity: {
        const Config both = random_tokens(rng, dimension, readable, 1);
        net.add(both, both);
        break;
      }
      case kPairwise:
      case kNumShapes:
        net.add(random_tokens(rng, dimension, readable, 2), post(2));
        break;
    }
  }
  return net;
}

}  // namespace

TEST(Explore, IndexedScanMatchesDenseReferenceOnRandomNets) {
  ppsc::util::Xoshiro256 rng(2024);
  std::array<std::size_t, kNumShapes> seen{};
  std::size_t truncated = 0;
  std::size_t stopped = 0;
  std::size_t complete = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const PetriNet net = random_net(rng, seen);
    const std::size_t d = net.num_states();
    const std::size_t num_roots = 1 + rng.below(2);
    std::vector<Config> roots;
    roots.reserve(num_roots);
    for (std::size_t r = 0; r < num_roots; ++r) {
      roots.push_back(random_tokens(rng, d, d, 1 + rng.below(4)));
    }
    petri::ExploreLimits limits;
    limits.max_nodes = 8 + rng.below(120);
    std::function<bool(petri::ConfigView)> stop;
    if (rng.below(3) == 0) {
      const petri::Count threshold =
          2 + static_cast<petri::Count>(rng.below(3));
      stop = [threshold](petri::ConfigView c) { return c[0] >= threshold; };
    }

    const auto graph = petri::explore(net, roots, limits, stop);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_dense(net, graph, roots, limits.max_nodes, stop));
    truncated += graph.truncated ? 1 : 0;
    stopped += graph.stopped ? 1 : 0;
    complete += graph.truncated || graph.stopped ? 0 : 1;

    for (std::size_t u = 0; u < graph.size(); ++u) {
      const Config node = graph.config(u);
      for (std::size_t t = 0; t < net.num_transitions(); ++t) {
        ASSERT_EQ(net.enabled(t, node), dense_enabled(net, t, node));
      }
      // The BFS word replays from the node's root onto the node.
      std::size_t root = u;
      while (graph.parent[root] != petri::ReachabilityGraph::kNoParent) {
        root = graph.parent[root];
      }
      EXPECT_EQ(petri::fire_word(net, graph.config(root), graph.word_to(u)),
                node);
    }
    // Random words (with an out-of-range index now and then) replay as
    // the dense semantics says, including where they get stuck.
    for (int w = 0; w < 4; ++w) {
      std::vector<std::size_t> word;
      std::optional<Config> expected = roots[0];
      const std::size_t length = rng.below(6);
      for (std::size_t i = 0; i < length; ++i) {
        const std::size_t t = rng.below(net.num_transitions() + 1);
        word.push_back(t);
        if (!expected) continue;
        if (t < net.num_transitions() && dense_enabled(net, t, *expected)) {
          expected = dense_fire(net, t, *expected);
        } else {
          expected = std::nullopt;
        }
      }
      EXPECT_EQ(petri::fire_word(net, roots[0], word), expected);
    }
  }
  // Every shape and every exit path was exercised.
  for (std::size_t shape = 0; shape < kNumShapes; ++shape) {
    EXPECT_GT(seen[shape], 50u) << "shape " << shape;
  }
  EXPECT_GT(truncated, 20u);
  EXPECT_GT(stopped, 20u);
  EXPECT_GT(complete, 20u);
}

TEST(Explore, TruncatesPumpingNets) {
  petri::ExploreLimits limits;
  limits.max_nodes = 50;
  const auto graph = petri::explore(pump(), {Config{1, 0}}, limits);
  EXPECT_TRUE(graph.truncated);
  EXPECT_EQ(graph.size(), 50u);
}

namespace {

// place 0 -> place 1 -> ... -> place d-1.
PetriNet chain(std::size_t d) {
  PetriNet net(d);
  for (std::size_t p = 0; p + 1 < d; ++p) {
    net.add(Config::unit(d, p), Config::unit(d, p + 1));
  }
  return net;
}

}  // namespace

TEST(Explore, LargeGraphsMatchDenseReferenceAcrossTableGrowths) {
  // The intern table starts at 1024 slots and doubles at half load, so
  // every graph past 4096 nodes has grown it four times.
  // 14 tokens on a 6-chain: C(19, 5) = 11628 configurations.
  const PetriNet six = chain(6);
  const std::vector<Config> six_roots = {Config::unit(6, 0, 14)};
  const std::size_t budget = petri::ExploreLimits{}.max_nodes;
  const auto big = petri::explore(six, six_roots);
  EXPECT_EQ(big.size(), 11628u);
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_dense(six, big, six_roots, budget, {}));
  // A wide product (72 places, 4167 transitions).
  const auto cp = ppsc::core::interval_counting(2, 4);
  const PetriNet& wide = cp.protocol.net();
  const std::vector<Config> wide_roots = {
      Config(cp.protocol.initial_config({5}))};
  ASSERT_NO_FATAL_FAILURE(expect_matches_dense(
      wide, petri::explore(wide, wide_roots), wide_roots, budget, {}));
  // Random nets with many tokens, pumping ones cut at the budget.
  ppsc::util::Xoshiro256 rng(77);
  std::array<std::size_t, kNumShapes> seen{};
  std::size_t grown = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const PetriNet net = random_net(rng, seen);
    const std::size_t d = net.num_states();
    const std::vector<Config> roots = {
        random_tokens(rng, d, d, 10 + rng.below(20))};
    petri::ExploreLimits limits;
    limits.max_nodes = 12000;
    const auto graph = petri::explore(net, roots, limits);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_dense(net, graph, roots, limits.max_nodes, {}));
    grown += graph.size() > 4096 ? 1 : 0;
  }
  EXPECT_GE(grown, 3u);
}

TEST(Explore, TruncatesAtExactlyMaxNodes) {
  // A budget of exactly the reachable count keeps the whole graph; one
  // less drops the last-discovered node and every edge into it.
  const std::vector<std::pair<PetriNet, Config>> cases = {
      {chain3(), Config{2, 0, 0}}, {chain(6), Config::unit(6, 0, 14)}};
  for (const auto& [net, root] : cases) {
    const std::size_t reachable = petri::explore(net, {root}).size();
    for (const std::size_t budget : {reachable, reachable - 1}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      petri::ExploreLimits limits;
      limits.max_nodes = budget;
      const auto graph = petri::explore(net, {root}, limits);
      EXPECT_EQ(graph.size(), budget);
      EXPECT_EQ(graph.truncated, budget < reachable);
      EXPECT_EQ(graph.stats.truncated, graph.truncated);
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_dense(net, graph, {root}, budget, {}));
    }
  }
}

TEST(Explore, RejectsNodeBudgetsBeyond32BitIds) {
  if (sizeof(std::size_t) < 8) GTEST_SKIP() << "size_t cannot hold 2^32";
  const std::size_t ids = std::size_t{0xffffffffu} + 1;  // 2^32
  petri::ExploreLimits limits;
  limits.max_nodes = ids;
  EXPECT_THROW(petri::explore(chain3(), {Config{2, 0, 0}}, limits),
               std::invalid_argument);
  limits.max_nodes = ids - 1;
  EXPECT_EQ(petri::explore(chain3(), {Config{2, 0, 0}}, limits).size(), 6u);
}

TEST(Coverability, BackwardBasisIsMinimal) {
  // Net a -> b, target one b: basis is {b:1} plus {a:1}.
  PetriNet net(2);
  net.add(Config{1, 0}, Config{0, 1});
  const auto basis = petri::backward_basis(net, Config{0, 1});
  ASSERT_EQ(basis.size(), 2u);
  EXPECT_NE(std::find(basis.begin(), basis.end(), Config{0, 1}), basis.end());
  EXPECT_NE(std::find(basis.begin(), basis.end(), Config{1, 0}), basis.end());
}

TEST(Coverability, PositiveAndNegative) {
  const PetriNet net = chain3();
  EXPECT_TRUE(petri::coverable(net, Config{3, 0, 0}, Config{0, 0, 3}));
  EXPECT_TRUE(petri::coverable(net, Config{1, 1, 1}, Config{0, 0, 2}));
  // Chains conserve tokens: 2 tokens never cover 3.
  EXPECT_FALSE(petri::coverable(net, Config{2, 0, 0}, Config{0, 0, 3}));
  // The pump makes b unbounded but never grows a.
  EXPECT_TRUE(petri::coverable(pump(), Config{1, 0}, Config{1, 7}));
  EXPECT_FALSE(petri::coverable(pump(), Config{1, 0}, Config{2, 0}));
}

TEST(Coverability, ShortestWordIsExact) {
  const PetriNet net = chain3();
  const auto result = petri::shortest_covering_word(net, Config{1, 0, 0},
                                                    Config{0, 0, 1}, 1000);
  ASSERT_TRUE(result.word.has_value());
  EXPECT_EQ(*result.word, (std::vector<std::size_t>{0, 1}));
  // Already covered: empty word.
  const auto trivial =
      petri::shortest_covering_word(net, Config{0, 0, 1}, Config{0, 0, 1}, 10);
  ASSERT_TRUE(trivial.word.has_value());
  EXPECT_TRUE(trivial.word->empty());
  // Uncoverable in a finite net: no word, not truncated.
  const auto missing = petri::shortest_covering_word(net, Config{1, 0, 0},
                                                     Config{0, 0, 2}, 1000);
  EXPECT_FALSE(missing.word.has_value());
  EXPECT_FALSE(missing.truncated);
}

TEST(KarpMiller, AcceleratesPumpToOmega) {
  const auto km = petri::karp_miller(pump(), Config{1, 0}, 1000);
  EXPECT_FALSE(km.truncated);
  EXPECT_TRUE(km.covers(Config{1, 1000000}));
  EXPECT_FALSE(km.covers(Config{2, 0}));
  bool has_omega = false;
  for (std::size_t n = 0; n < km.nodes.size(); ++n) {
    const auto finite = km.finite_places(n);
    if (!finite[1]) has_omega = true;
    EXPECT_TRUE(finite[0]) << "place a must stay finite";
  }
  EXPECT_TRUE(has_omega);
}

TEST(KarpMiller, FiniteNetsGetNoOmega) {
  const auto km = petri::karp_miller(toggle(), Config{2, 0}, 1000);
  EXPECT_FALSE(km.truncated);
  EXPECT_EQ(km.nodes.size(), 3u);  // (2,0), (1,1), (0,2)
  EXPECT_TRUE(km.covers(Config{0, 2}));
  EXPECT_FALSE(km.covers(Config{3, 0}));
}

TEST(KarpMiller, AgreesWithBackwardCoverability) {
  // Every engine answers the same queries on toggle_pump.
  const PetriNet net = toggle_pump();
  const Config source{1, 0, 0};
  const auto km = petri::karp_miller(net, source, 10000);
  ASSERT_FALSE(km.truncated);
  const std::vector<Config> targets = {
      Config{1, 0, 0}, Config{0, 1, 0}, Config{1, 1, 0}, Config{0, 0, 5},
      Config{1, 0, 9}, Config{2, 0, 0}, Config{0, 1, 3},
  };
  for (const Config& target : targets) {
    EXPECT_EQ(petri::coverable(net, source, target), km.covers(target))
        << "target " << target[0] << "," << target[1] << "," << target[2];
  }
}

TEST(Bottom, FiniteNetWitness) {
  // chain a -> b from 3 a's: the unique bottom configuration is (0,3).
  PetriNet net(2);
  net.add(Config{1, 0}, Config{0, 1});
  const auto witness = petri::find_bottom_witness(net, Config{3, 0});
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->sigma.size(), 3u);
  EXPECT_TRUE(witness->w.empty());
  EXPECT_EQ(witness->alpha, (Config{0, 3}));
  EXPECT_EQ(witness->component_size, 1u);
  EXPECT_EQ(witness->q_mask, std::vector<bool>({true, true}));
  EXPECT_TRUE(petri::check_bottom_witness(net, Config{3, 0}, *witness));
}

TEST(Bottom, ToggleComponentIsWholeGraph) {
  const auto witness = petri::find_bottom_witness(toggle(), Config{3, 0});
  ASSERT_TRUE(witness.has_value());
  EXPECT_TRUE(witness->sigma.empty());  // rho itself is bottom
  EXPECT_EQ(witness->component_size, 4u);
  EXPECT_TRUE(petri::check_bottom_witness(toggle(), Config{3, 0}, *witness));
}

TEST(Bottom, PumpingWitnessHasProperQAndW) {
  petri::ExploreLimits limits;
  limits.max_nodes = 5000;
  const auto witness =
      petri::find_bottom_witness(pump(), Config{1, 0}, limits);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->q_mask, std::vector<bool>({true, false}));
  ASSERT_FALSE(witness->w.empty());
  EXPECT_GT(witness->beta[1], witness->alpha[1]);
  EXPECT_EQ(witness->beta[0], witness->alpha[0]);
  EXPECT_TRUE(petri::check_bottom_witness(pump(), Config{1, 0}, *witness,
                                          limits));
}

TEST(Bottom, CorruptedWitnessesAreRejected) {
  petri::ExploreLimits limits;
  limits.max_nodes = 5000;
  const PetriNet net = toggle_pump();
  const Config rho{1, 0, 0};
  const auto witness = petri::find_bottom_witness(net, rho, limits);
  ASSERT_TRUE(witness.has_value());
  ASSERT_TRUE(petri::check_bottom_witness(net, rho, *witness, limits));
  {
    auto bad = *witness;
    bad.sigma.push_back(0);  // replay no longer lands on alpha
    EXPECT_FALSE(petri::check_bottom_witness(net, rho, bad, limits));
  }
  {
    auto bad = *witness;
    bad.component_size += 1;
    EXPECT_FALSE(petri::check_bottom_witness(net, rho, bad, limits));
  }
  {
    auto bad = *witness;
    bad.q_mask.assign(3, true);  // claims the pump place is bounded
    EXPECT_FALSE(petri::check_bottom_witness(net, rho, bad, limits));
  }
}

TEST(Bottom, ComponentOfToggleRestriction) {
  const auto component =
      petri::component_of(toggle(), Config{2, 1});
  EXPECT_TRUE(component.closed);
  EXPECT_EQ(component.members.size(), 4u);
  // A chain's start is its own SCC but not closed.
  PetriNet net(2);
  net.add(Config{1, 0}, Config{0, 1});
  const auto open = petri::component_of(net, Config{1, 0});
  EXPECT_EQ(open.members.size(), 1u);
  EXPECT_FALSE(open.closed);
}

TEST(ControlNet, TotalCycleCoversEveryEdge) {
  // Triangle with an extra chord 0 -> 1.
  PetriNet base(1);
  base.add(Config{0}, Config{0});
  petri::ControlStateNet cnet(base, 3);
  cnet.add_edge(0, 0, 1);
  cnet.add_edge(1, 0, 2);
  cnet.add_edge(2, 0, 0);
  cnet.add_edge(0, 0, 1);
  ASSERT_TRUE(cnet.strongly_connected());
  const auto cycle = cnet.total_cycle(0);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_TRUE(cnet.is_cycle(*cycle, 0));
  EXPECT_LE(cycle->size(), cnet.num_edges() * cnet.num_controls());
  for (std::uint64_t count : cnet.parikh(*cycle)) {
    EXPECT_GE(count, 1u);
  }
}

TEST(ControlNet, NotStronglyConnectedHasNoTotalCycle) {
  PetriNet base(1);
  base.add(Config{0}, Config{0});
  petri::ControlStateNet cnet(base, 2);
  cnet.add_edge(0, 0, 1);  // no way back
  EXPECT_FALSE(cnet.strongly_connected());
  EXPECT_FALSE(cnet.total_cycle(0).has_value());
}

TEST(ControlNet, FromComponentOfTogglePump) {
  // Q = {a, b}: controls are (1,0) and (0,1); the pump contributes a
  // self-loop at (1,0) whose underlying effect creates one c.
  const PetriNet net = toggle_pump();
  const std::vector<bool> q_mask{true, true, false};
  const auto component = petri::component_of(net.restrict(q_mask),
                                             Config{1, 0});
  ASSERT_TRUE(component.closed);
  ASSERT_EQ(component.members.size(), 2u);
  const auto cnet =
      petri::ControlStateNet::from_component(net, component.members, q_mask);
  EXPECT_EQ(cnet.num_controls(), 2u);
  EXPECT_EQ(cnet.num_edges(), 3u);
  EXPECT_TRUE(cnet.strongly_connected());
  EXPECT_EQ(cnet.net().num_states(), 1u);
  const auto cycle = cnet.total_cycle(0);
  ASSERT_TRUE(cycle.has_value());
  const auto displacement = cnet.displacement(cnet.parikh(*cycle));
  EXPECT_GT(displacement[0], 0);  // the walk pumps c
}

TEST(Euler, CircuitAndNegatives) {
  const std::vector<std::pair<std::size_t, std::size_t>> edges = {
      {0, 1}, {1, 0}, {0, 0}};
  const auto circuit = petri::euler_circuit(2, edges, {2, 2, 1}, 0);
  ASSERT_TRUE(circuit.has_value());
  EXPECT_EQ(circuit->size(), 5u);
  // Unbalanced multiset: no circuit.
  EXPECT_FALSE(petri::euler_circuit(2, edges, {2, 1, 0}, 0).has_value());
  // Disconnected used edges: no circuit.
  const std::vector<std::pair<std::size_t, std::size_t>> split = {
      {0, 0}, {1, 1}};
  EXPECT_FALSE(petri::euler_circuit(2, split, {1, 1}, 0).has_value());
}

TEST(WidthReduction, HandNetCompilesToWidth2) {
  // One width-3 transition: 2a + b -> c.
  PetriNet net(3);
  net.add(Config{2, 1, 0}, Config{0, 0, 1});
  const auto reduction = petri::widen_to_width2(net);
  EXPECT_EQ(reduction.compiled.num_states(), 4u);  // 3 originals + 1 collector
  EXPECT_EQ(reduction.compiled.num_transitions(), 2u);
  EXPECT_EQ(reduction.compiled.max_width(), 2);
  const Config root{2, 1, 0};
  EXPECT_EQ(reduction.project(reduction.embed(root)), root);
  // Rolling back a half-gathered marking returns the two a tokens.
  Config half(4);
  half[1] = 1;
  half[3] = 1;  // collector holding {a, a}
  EXPECT_EQ(reduction.project(reduction.cleanup(half)), (Config{2, 1, 0}));
}

TEST(WidthReduction, Example41IsProjectionEquivalent) {
  const auto cp = ppsc::core::example_4_1(3);
  const PetriNet& net = cp.protocol.net();
  EXPECT_GT(net.max_width(), 2);
  const auto reduction = petri::widen_to_width2(net);
  EXPECT_EQ(reduction.compiled.max_width(), 2);

  const Config root{4, 0};  // above threshold
  std::set<std::vector<petri::Count>> original;
  const auto graph = petri::explore(net, {root});
  for (std::size_t i = 0; i < graph.size(); ++i) {
    original.insert(graph.config(i).raw());
  }
  std::set<std::vector<petri::Count>> compiled;
  const auto wide =
      petri::explore(reduction.compiled, {reduction.embed(root)});
  for (std::size_t i = 0; i < wide.size(); ++i) {
    compiled.insert(reduction.project(reduction.cleanup(wide.config(i))).raw());
  }
  EXPECT_EQ(original, compiled);
}

TEST(WidthReduction, NarrowNetsPassThrough) {
  const PetriNet net = toggle();
  const auto reduction = petri::widen_to_width2(net);
  EXPECT_EQ(reduction.compiled.num_states(), net.num_states());
  EXPECT_EQ(reduction.compiled.num_transitions(), net.num_transitions());
  EXPECT_TRUE(reduction.collector_contents.empty());
}

TEST(ConfigHash, PermutedSmallMarkingsDoNotCollide) {
  // Markings are dominated by 0/1 counts; folding them raw left most
  // of the hash state untouched and collided permutations. With the
  // splitmix64 mixing every 0/1 marking of a small dimension must hash
  // distinctly (deterministic: the hash has no per-process salt).
  const petri::ConfigHash hash;
  std::set<std::size_t> seen;
  const std::size_t dimension = 6;
  for (unsigned mask = 0; mask < (1u << dimension); ++mask) {
    Config config(dimension);
    for (std::size_t p = 0; p < dimension; ++p) {
      config[p] = (mask >> p) & 1u;
    }
    seen.insert(hash(config));
  }
  EXPECT_EQ(seen.size(), 1u << dimension);
}

TEST(ConfigHash, SmallCountPlacementsDoNotCollide) {
  // All placements of a single count 1..4 across 5 places, plus the
  // zero marking: pairwise distinct.
  const petri::ConfigHash hash;
  std::set<std::size_t> seen;
  std::size_t inserted = 0;
  seen.insert(hash(Config(5)));
  ++inserted;
  for (std::size_t p = 0; p < 5; ++p) {
    for (petri::Count k = 1; k <= 4; ++k) {
      seen.insert(hash(Config::unit(5, p, k)));
      ++inserted;
    }
  }
  EXPECT_EQ(seen.size(), inserted);
}
