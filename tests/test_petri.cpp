// The petri/ engines against hand-computed nets: coverability bases,
// Karp-Miller omega-markings, Theorem 6.1 bottom witnesses, control
// nets with Euler total cycles, and the width-2 compilation -- each
// with a negative case.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "petri/bottom.h"
#include "petri/control_net.h"
#include "petri/coverability.h"
#include "petri/karp_miller.h"
#include "petri/reachability.h"
#include "petri/width_reduction.h"
#include "util/parallel.h"
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

using Arcs = std::vector<petri::Arc>;

Arcs list(ppsc::util::Span<petri::Arc> arcs) {
  return Arcs(arcs.begin(), arcs.end());
}

// Toggle on {a, b} plus a pump a -> a + c.
PetriNet toggle_pump() {
  PetriNet net(3);
  net.add(Config{1, 0, 0}, Config{0, 1, 0});
  net.add(Config{0, 1, 0}, Config{1, 0, 0});
  net.add(Config{1, 0, 0}, Config{1, 0, 1});
  return net;
}

// Toggle on {a, b}, a pump c -> 2c and, unless `leak` is false,
// c -> b + c: with omega tokens on c the leak adds a b to any marking
// of the toggle, so the toggle is a closed T|Q component for
// Q = {a, b} that a Q-projected step leaves.
PetriNet toggle_leak(bool leak = true) {
  PetriNet net(3);
  net.add(Config{1, 0, 0}, Config{0, 1, 0});
  net.add(Config{0, 1, 0}, Config{1, 0, 0});
  if (leak) net.add(Config{0, 0, 1}, Config{0, 1, 1});
  net.add(Config{0, 0, 1}, Config{0, 0, 2});
  return net;
}

}  // namespace

TEST(PetriConfig, UnitRestrictAndNorms) {
  const Config u = Config::unit(4, 2, 5);
  EXPECT_EQ(u, (Config{0, 0, 5, 0}));
  EXPECT_EQ(u.norm_inf(), 5);
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
  EXPECT_EQ(list(projected.pre(2)), (Arcs{{0, 1}}));
  EXPECT_EQ(list(projected.post(2)), (Arcs{{0, 1}}));
  EXPECT_TRUE(list(projected.delta(2)).empty());
}

TEST(PetriNet, SparseAddValidatesItsArcs) {
  PetriNet net(3);
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
  net.add(Config{1, 1, 0}, Config{0, 0, 2});
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_EQ(list(net.pre(t)), (Arcs{{0, 1}, {1, 1}}));
    EXPECT_EQ(list(net.post(t)), (Arcs{{2, 2}}));
    EXPECT_EQ(list(net.delta(t)), (Arcs{{0, -1}, {1, -1}, {2, 2}}));
  }
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
  const auto graph = petri::explore(net, {cp.protocol.initial_config({5})});
  ASSERT_FALSE(graph.truncated);
  EXPECT_LT(graph.stats.enabled_checks,
            graph.stats.configs * net.num_transitions() / 10);
}

namespace {

// A net as dense pre/post matrices: the reference the sparse engines
// are checked against. The reference helpers below read only these
// matrices, never the PetriNet compiled from them.
struct DenseNet {
  std::size_t dimension = 0;
  std::vector<Config> pre;
  std::vector<Config> post;

  void add(Config p, Config q) {
    pre.push_back(std::move(p));
    post.push_back(std::move(q));
  }
  std::size_t size() const { return pre.size(); }
  PetriNet compile() const {
    PetriNet net(dimension);
    for (std::size_t t = 0; t < size(); ++t) net.add(pre[t], post[t]);
    return net;
  }
};

// The matrices of a net that exists only compiled (the core/ products),
// read off its pre and post lists. explore() reads pre and delta, so
// firing post - pre from these matrices stays an independent check.
DenseNet dense_of(const PetriNet& net) {
  DenseNet dense{net.num_states(), {}, {}};
  for (std::size_t t = 0; t < net.num_transitions(); ++t) {
    Config pre(dense.dimension);
    Config post(dense.dimension);
    for (const petri::Arc& arc : net.pre(t)) pre[arc.place] = arc.count;
    for (const petri::Arc& arc : net.post(t)) post[arc.place] = arc.count;
    dense.add(std::move(pre), std::move(post));
  }
  return dense;
}

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

bool dense_enabled(const DenseNet& net, std::size_t t, const Config& config) {
  for (std::size_t p = 0; p < net.dimension; ++p) {
    if (config[p] < net.pre[t][p]) return false;
  }
  return true;
}

Config dense_fire(const DenseNet& net, std::size_t t, Config config) {
  for (std::size_t p = 0; p < net.dimension; ++p) {
    config[p] += net.post[t][p] - net.pre[t][p];
  }
  return config;
}

DenseGraph dense_explore(const DenseNet& net, const std::vector<Config>& roots,
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
    for (std::size_t t = 0; t < net.size(); ++t) {
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
void expect_matches_dense(const DenseNet& net,
                          const petri::ReachabilityGraph& graph,
                          const std::vector<Config>& roots,
                          std::size_t max_nodes,
                          const std::function<bool(petri::ConfigView)>& stop) {
  const DenseGraph reference = dense_explore(net, roots, max_nodes, stop);
  const std::size_t n = graph.size();
  ASSERT_EQ(n, reference.nodes.size());
  ASSERT_EQ(graph.dimension, net.dimension);
  ASSERT_EQ(graph.counts.size(), n * net.dimension);
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

// A random net over 2..5 places whose last place no transition reads,
// as the dense matrices drawn; `seen` tallies the shapes drawn.
DenseNet random_net(ppsc::util::Xoshiro256& rng,
                    std::array<std::size_t, kNumShapes>& seen) {
  const std::size_t dimension = 2 + rng.below(4);
  const std::size_t readable = dimension - 1;
  DenseNet net{dimension, {}, {}};
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
    const DenseNet dense = random_net(rng, seen);
    const PetriNet net = dense.compile();
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
        expect_matches_dense(dense, graph, roots, limits.max_nodes, stop));
    truncated += graph.truncated ? 1 : 0;
    stopped += graph.stopped ? 1 : 0;
    complete += graph.truncated || graph.stopped ? 0 : 1;

    for (std::size_t u = 0; u < graph.size(); ++u) {
      const Config node = graph.config(u);
      for (std::size_t t = 0; t < net.num_transitions(); ++t) {
        ASSERT_EQ(net.enabled(t, node), dense_enabled(dense, t, node));
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
        if (t < net.num_transitions() && dense_enabled(dense, t, *expected)) {
          expected = dense_fire(dense, t, *expected);
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
DenseNet chain(std::size_t d) {
  DenseNet net{d, {}, {}};
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
  const DenseNet six = chain(6);
  const std::vector<Config> six_roots = {Config::unit(6, 0, 14)};
  const std::size_t budget = petri::ExploreLimits{}.max_nodes;
  const auto big = petri::explore(six.compile(), six_roots);
  EXPECT_EQ(big.size(), 11628u);
  ASSERT_NO_FATAL_FAILURE(
      expect_matches_dense(six, big, six_roots, budget, {}));
  // A wide product (72 places, 4167 transitions).
  const auto cp = ppsc::core::interval_counting(2, 4);
  const PetriNet& wide = cp.protocol.net();
  const std::vector<Config> wide_roots = {cp.protocol.initial_config({5})};
  ASSERT_NO_FATAL_FAILURE(expect_matches_dense(dense_of(wide),
                                               petri::explore(wide, wide_roots),
                                               wide_roots, budget, {}));
  // Random nets with many tokens, pumping ones cut at the budget.
  ppsc::util::Xoshiro256 rng(77);
  std::array<std::size_t, kNumShapes> seen{};
  std::size_t grown = 0;
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const DenseNet dense = random_net(rng, seen);
    const std::size_t d = dense.dimension;
    const std::vector<Config> roots = {
        random_tokens(rng, d, d, 10 + rng.below(20))};
    petri::ExploreLimits limits;
    limits.max_nodes = 12000;
    const auto graph = petri::explore(dense.compile(), roots, limits);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_dense(dense, graph, roots, limits.max_nodes, {}));
    grown += graph.size() > 4096 ? 1 : 0;
  }
  EXPECT_GE(grown, 3u);
}

TEST(Explore, TruncatesAtExactlyMaxNodes) {
  // A budget of exactly the reachable count keeps the whole graph; one
  // less drops the last-discovered node and every edge into it.
  const std::vector<std::pair<DenseNet, Config>> cases = {
      {chain(3), Config{2, 0, 0}}, {chain(6), Config::unit(6, 0, 14)}};
  for (const auto& [dense, root] : cases) {
    const PetriNet net = dense.compile();
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
          expect_matches_dense(dense, graph, {root}, budget, {}));
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

namespace {

// One-head-at-a-time reference for explore()'s batched frontier: the
// BFS expands one head after the other, looks every successor up in an
// intern table of the same shape as explore's (1024 slots to start,
// linear probing, grown at half load, old slots reinserted in index
// order) and checks `stop` on each new node. Every field of the graph
// and of its stats, collisions included, so has an expected value that
// no batch, resolve or thread count enters into.
petri::ReachabilityGraph serial_explore(
    const PetriNet& net, const std::vector<Config>& roots,
    std::size_t max_nodes,
    const std::function<bool(petri::ConfigView)>& stop = {}) {
  constexpr std::uint32_t kEmpty = 0xffffffffu;
  const std::size_t d = net.num_states();
  petri::ReachabilityGraph graph;
  graph.dimension = d;
  petri::ExploreStats& stats = graph.stats;
  std::vector<std::uint32_t> slots(1024, kEmpty);
  std::size_t interned = 0;
  const auto home = [&](std::uint64_t h) {
    return static_cast<std::size_t>(h) & (slots.size() - 1);
  };
  const auto intern = [&](const Config& config, bool room, std::size_t parent,
                          std::size_t transition) -> std::uint32_t {
    ++stats.probes;
    const std::uint64_t h = petri::ConfigHash{}(config);
    std::size_t slot = home(h);
    std::uint64_t probed = 0;
    for (; slots[slot] != kEmpty; slot = (slot + 1) & (slots.size() - 1)) {
      if (graph.config(slots[slot]) == config) return slots[slot];
      ++probed;
    }
    if (!room) return kEmpty;
    stats.collisions += probed;
    const auto id = static_cast<std::uint32_t>(graph.size());
    graph.counts.insert(graph.counts.end(), config.begin(), config.end());
    graph.hashes.push_back(h);
    graph.parent.push_back(parent);
    graph.parent_transition.push_back(transition);
    slots[slot] = id;
    if (2 * ++interned > slots.size()) {
      std::vector<std::uint32_t> old(2 * slots.size(), kEmpty);
      old.swap(slots);
      for (const std::uint32_t node : old) {
        if (node == kEmpty) continue;
        std::size_t to = home(graph.hashes[node]);
        while (slots[to] != kEmpty) to = (to + 1) & (slots.size() - 1);
        slots[to] = node;
      }
    }
    if (!graph.stopped && stop && stop(graph.node(id))) graph.stopped = id;
    return id;
  };
  for (const Config& root : roots) {
    intern(root, true, petri::ReachabilityGraph::kNoParent, 0);
  }
  std::vector<std::size_t> enabled;
  for (std::size_t head = 0; head < graph.size() && !graph.stopped; ++head) {
    stats.frontier_peak = std::max(stats.frontier_peak, graph.size() - head);
    graph.edge_begin.push_back(graph.edges.size());
    const Config current = graph.config(head);
    stats.enabled_checks += net.enabled_transitions(current, enabled);
    for (const std::size_t t : enabled) {
      const std::uint32_t target = intern(
          net.fire(t, current), graph.size() < max_nodes, head, t);
      if (target == kEmpty) {
        graph.truncated = true;
        continue;
      }
      graph.edges.push_back({target, static_cast<std::uint32_t>(t)});
      if (graph.stopped) break;
    }
  }
  graph.edge_begin.resize(graph.size() + 1, graph.edges.size());
  stats.configs = graph.size();
  stats.edges = graph.edges.size();
  stats.truncated = graph.truncated;
  return graph;
}

// Every field of two graphs and of their stats.
void expect_same_graph(const petri::ReachabilityGraph& got,
                       const petri::ReachabilityGraph& want) {
  EXPECT_EQ(got.dimension, want.dimension);
  EXPECT_EQ(got.counts, want.counts);
  EXPECT_EQ(got.hashes, want.hashes);
  EXPECT_EQ(got.edge_begin, want.edge_begin);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t e = 0; e < want.edges.size(); ++e) {
    ASSERT_EQ(got.edges[e].target, want.edges[e].target) << "edge " << e;
    ASSERT_EQ(got.edges[e].transition, want.edges[e].transition)
        << "edge " << e;
  }
  EXPECT_EQ(got.parent, want.parent);
  EXPECT_EQ(got.parent_transition, want.parent_transition);
  EXPECT_EQ(got.truncated, want.truncated);
  EXPECT_EQ(got.stopped, want.stopped);
  EXPECT_EQ(got.stats.configs, want.stats.configs);
  EXPECT_EQ(got.stats.edges, want.stats.edges);
  EXPECT_EQ(got.stats.frontier_peak, want.stats.frontier_peak);
  EXPECT_EQ(got.stats.probes, want.stats.probes);
  EXPECT_EQ(got.stats.collisions, want.stats.collisions);
  EXPECT_EQ(got.stats.enabled_checks, want.stats.enabled_checks);
  EXPECT_EQ(got.stats.truncated, want.stats.truncated);
}

// Where explore() runs: a top-level call, whose batches resolve on the
// whole pool; a call while another thread's parallel_for holds the
// pool, whose batches resolve on the caller alone (a one-worker
// resolve); and a call inside a pool task, which expands one head per
// batch with no resolve, as a call in a one-thread pool does.
enum class Width { kPool, kCallerAlone, kInsidePoolTask };
constexpr Width kWidths[] = {Width::kPool, Width::kCallerAlone,
                             Width::kInsidePoolTask};

const char* width_name(Width width) {
  switch (width) {
    case Width::kPool:
      return "pool";
    case Width::kCallerAlone:
      return "caller alone";
    case Width::kInsidePoolTask:
      return "inside a pool task";
  }
  return "?";
}

petri::ReachabilityGraph explore_at(
    Width width, const PetriNet& net, const std::vector<Config>& roots,
    std::size_t max_nodes,
    const std::function<bool(petri::ConfigView)>& stop = {}) {
  petri::ExploreLimits limits;
  limits.max_nodes = max_nodes;
  const auto call = [&] { return petri::explore(net, roots, limits, stop); };
  switch (width) {
    case Width::kPool:
      EXPECT_EQ(ppsc::util::runs_inline(),
                ppsc::util::parallel_width() == 1);
      return call();
    case Width::kCallerAlone: {
      std::atomic<bool> held{false};
      std::atomic<bool> release{false};
      std::thread holder([&] {
        ppsc::util::parallel_for(2, [&](std::size_t) {
          held.store(true);
          while (!release.load()) std::this_thread::yield();
        });
      });
      while (!held.load()) std::this_thread::yield();
      petri::ReachabilityGraph graph = call();
      release.store(true);
      holder.join();
      return graph;
    }
    case Width::kInsidePoolTask: {
      std::vector<petri::ReachabilityGraph> graphs(2);
      ppsc::util::parallel_for(graphs.size(), [&](std::size_t i) {
        EXPECT_TRUE(ppsc::util::runs_inline());
        graphs[i] = call();
      });
      EXPECT_NO_FATAL_FAILURE(expect_same_graph(graphs[1], graphs[0]));
      return std::move(graphs[0]);
    }
  }
  return call();
}

// explore() at every width against the reference; the frontier peak
// of the reference, so callers can tell whether batches were taken.
std::size_t expect_matches_serial(
    const PetriNet& net, const std::vector<Config>& roots,
    std::size_t max_nodes,
    const std::function<bool(petri::ConfigView)>& stop = {}) {
  const petri::ReachabilityGraph want =
      serial_explore(net, roots, max_nodes, stop);
  for (const Width width : kWidths) {
    SCOPED_TRACE(width_name(width));
    EXPECT_NO_FATAL_FAILURE(
        expect_same_graph(explore_at(width, net, roots, max_nodes, stop),
                          want));
  }
  return want.stats.frontier_peak;
}

}  // namespace

TEST(Explore, BatchesMatchTheHeadByHeadReferenceOnRandomNets) {
  ppsc::util::Xoshiro256 rng(2029);
  std::array<std::size_t, kNumShapes> seen{};
  std::size_t batched = 0;
  for (int trial = 0; trial < 120; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const PetriNet net = random_net(rng, seen).compile();
    const std::size_t d = net.num_states();
    std::vector<Config> roots = {random_tokens(rng, d, d, 1 + rng.below(4))};
    if (trial % 3 != 2) roots.push_back(random_tokens(rng, d, d, 40));
    std::function<bool(petri::ConfigView)> stop;
    if (trial % 3 == 0) {
      const auto threshold = static_cast<petri::Count>(30 + rng.below(20));
      stop = [threshold](petri::ConfigView c) { return c[0] >= threshold; };
    }
    const std::size_t peak =
        expect_matches_serial(net, roots, 200 + rng.below(8000), stop);
    batched += peak >= 512 ? 1 : 0;
  }
  EXPECT_GE(batched, 12u);
}

TEST(Explore, BatchesMatchTheHeadByHeadReferenceOnProducts) {
  // The four e17 products at their largest e17 input, and unary
  // counting to 4 at 24 agents.
  using namespace ppsc::core;
  const std::vector<std::pair<ConstructedProtocol, Count>> cases = {
      {negate(unary_counting(3)), 6},
      {interval_counting(2, 4), 7},
      {conjunction(unary_counting(2), modulo_counting(2, 1)), 6},
      {disjunction(unary_counting(4), modulo_counting(3, 0)), 6},
      {unary_counting(4), 24}};
  const std::size_t budget = petri::ExploreLimits{}.max_nodes;
  for (const auto& [cp, x] : cases) {
    SCOPED_TRACE(cp.predicate.name + " at " + std::to_string(x));
    expect_matches_serial(cp.protocol.net(), {cp.protocol.initial_config({x})},
                          budget);
  }
}

TEST(Explore, BatchesStopAndTruncateMidBatch) {
  // 20 tokens on a 6-chain: 53130 configs, a frontier peak of 1431.
  const PetriNet six = chain(6).compile();
  const std::vector<Config> roots = {Config::unit(6, 0, 20)};
  const petri::ReachabilityGraph full = serial_explore(six, roots, 1u << 20);
  ASSERT_EQ(full.size(), 53130u);
  // The first node with eight tokens at the end of the chain, and
  // budgets that run out partway through a level: each falls inside a
  // batch, with heads resolved after it that the commit must drop.
  const auto stop = [](petri::ConfigView c) { return c[5] >= 8; };
  const petri::ReachabilityGraph stopped =
      serial_explore(six, roots, 1u << 20, stop);
  ASSERT_TRUE(stopped.stopped.has_value());
  EXPECT_GE(stopped.stats.frontier_peak, 512u);
  EXPECT_GE(expect_matches_serial(six, roots, 1u << 20, stop), 512u);
  for (const std::size_t budget : {std::size_t{20000}, std::size_t{40001}}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    EXPECT_GE(expect_matches_serial(six, roots, budget), 512u);
  }
  // A wide product cut at 10,000 of its 15,449 configs.
  const auto cp = ppsc::core::disjunction(ppsc::core::unary_counting(4),
                                          ppsc::core::modulo_counting(3, 0));
  expect_matches_serial(cp.protocol.net(), {cp.protocol.initial_config({6})},
                        10000);
}

namespace {

// Dense reference for backward_basis: the same fixpoint with the same
// worklist and pruning order, the predecessor read off the matrices as
// max(pre, m - (post - pre)) on every place.
std::vector<Config> dense_backward_basis(const DenseNet& net,
                                         const Config& target) {
  std::vector<Config> basis{target};
  std::deque<Config> work{target};
  while (!work.empty()) {
    const Config m = work.front();
    work.pop_front();
    if (std::find(basis.begin(), basis.end(), m) == basis.end()) continue;
    for (std::size_t t = 0; t < net.size(); ++t) {
      Config pred(net.dimension);
      for (std::size_t p = 0; p < net.dimension; ++p) {
        pred[p] = std::max(net.pre[t][p],
                           m[p] - (net.post[t][p] - net.pre[t][p]));
      }
      if (std::any_of(basis.begin(), basis.end(),
                      [&pred](const Config& b) { return pred.covers(b); })) {
        continue;
      }
      basis.erase(std::remove_if(basis.begin(), basis.end(),
                                 [&pred](const Config& b) {
                                   return b.covers(pred);
                                 }),
                  basis.end());
      basis.push_back(pred);
      work.push_back(pred);
    }
  }
  return basis;
}

// The dense truncation of `net` to the kept places: every transition
// (keep_all, as project() does) or only those supported on them (as
// restrict() does).
DenseNet dense_sub_net(const DenseNet& net, const std::vector<bool>& keep,
                       bool keep_all) {
  DenseNet out{static_cast<std::size_t>(
                   std::count(keep.begin(), keep.end(), true)),
               {},
               {}};
  for (std::size_t t = 0; t < net.size(); ++t) {
    bool supported = true;
    for (std::size_t p = 0; p < net.dimension; ++p) {
      if (!keep[p] && (net.pre[t][p] != 0 || net.post[t][p] != 0)) {
        supported = false;
      }
    }
    if (keep_all || supported) {
      out.add(net.pre[t].restrict(keep), net.post[t].restrict(keep));
    }
  }
  return out;
}

// `net` holds exactly the transitions of `dense` as sparse lists: the
// nonzero entries of pre, of post and of post - pre.
void expect_compiles_to(const DenseNet& dense, const PetriNet& net) {
  ASSERT_EQ(net.num_states(), dense.dimension);
  ASSERT_EQ(net.num_transitions(), dense.size());
  for (std::size_t t = 0; t < dense.size(); ++t) {
    Arcs pre;
    Arcs post;
    Arcs delta;
    for (std::size_t p = 0; p < dense.dimension; ++p) {
      const petri::Count in = dense.pre[t][p];
      const petri::Count out = dense.post[t][p];
      if (in != 0) pre.push_back({p, in});
      if (out != 0) post.push_back({p, out});
      if (out != in) delta.push_back({p, out - in});
    }
    EXPECT_EQ(list(net.pre(t)), pre) << "transition " << t;
    EXPECT_EQ(list(net.post(t)), post) << "transition " << t;
    EXPECT_EQ(list(net.delta(t)), delta) << "transition " << t;
  }
}

// Each token of `config` on place p lands on p or on its twin p + 64,
// in a space of `dimension` places.
Config spread(ppsc::util::Xoshiro256& rng, const Config& config,
              std::size_t dimension) {
  Config out(dimension);
  for (std::size_t p = 0; p < config.size(); ++p) {
    for (petri::Count k = 0; k < config[p]; ++k) {
      out[p + 64 * rng.below(2)] += 1;
    }
  }
  return out;
}

// `net` over 66 to 130 places: every pre and post token lands on its
// place p or on p + 64, so transitions touch both places of a residue
// class mod 64 and the basis mixes markings that share a support
// signature bit without one covering the other.
DenseNet widen(ppsc::util::Xoshiro256& rng, const DenseNet& net) {
  DenseNet wide{64 + net.dimension + rng.below(62), {}, {}};
  for (std::size_t t = 0; t < net.size(); ++t) {
    wide.add(spread(rng, net.pre[t], wide.dimension),
             spread(rng, net.post[t], wide.dimension));
  }
  return wide;
}

// Pairs (x, y) of the basis that the 64-bit fold cannot tell apart
// (every residue marked in y is marked in x) although supp(y) is not
// within supp(x).
std::size_t aliased_pairs(const std::vector<Config>& basis) {
  const auto residues = [](const Config& c) {
    std::uint64_t sig = 0;
    for (std::size_t p = 0; p < c.size(); ++p) {
      if (c[p] != 0) sig |= std::uint64_t{1} << (p % 64);
    }
    return sig;
  };
  std::size_t aliased = 0;
  for (const Config& x : basis) {
    for (const Config& y : basis) {
      bool within = true;
      for (std::size_t p = 0; p < x.size(); ++p) {
        if (y[p] != 0 && x[p] == 0) within = false;
      }
      if (!within && (residues(y) & ~residues(x)) == 0) ++aliased;
    }
  }
  return aliased;
}

}  // namespace

TEST(Coverability, BackwardBasisMatchesDenseFixpointOnRandomNets) {
  ppsc::util::Xoshiro256 rng(31);
  std::array<std::size_t, kNumShapes> seen{};
  std::size_t grew = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const DenseNet dense = random_net(rng, seen);
    const std::size_t d = dense.dimension;
    const Config target = random_tokens(rng, d, d, 1 + rng.below(3));
    const std::vector<Config> basis =
        petri::backward_basis(dense.compile(), target);
    ASSERT_EQ(basis, dense_backward_basis(dense, target));
    grew += basis.size() > 1 ? 1 : 0;
  }
  EXPECT_GT(grew, 150u);
  // The same shapes widened past 64 places, where support signatures
  // fold two places onto one bit.
  std::size_t aliased = 0;
  for (int trial = 0; trial < 150; ++trial) {
    SCOPED_TRACE("wide trial " + std::to_string(trial));
    const DenseNet small = random_net(rng, seen);
    const DenseNet dense = widen(rng, small);
    const Config target = spread(
        rng,
        random_tokens(rng, small.dimension, small.dimension,
                      1 + rng.below(3)),
        dense.dimension);
    const std::vector<Config> basis =
        petri::backward_basis(dense.compile(), target);
    ASSERT_EQ(basis, dense_backward_basis(dense, target));
    aliased += aliased_pairs(basis) > 0 ? 1 : 0;
  }
  EXPECT_GT(aliased, 50u);
}

TEST(PetriNet, SubNetsMatchDenseTruncationOnRandomNets) {
  ppsc::util::Xoshiro256 rng(32);
  std::array<std::size_t, kNumShapes> seen{};
  std::size_t dropped = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const DenseNet dense = random_net(rng, seen);
    const PetriNet net = dense.compile();
    ASSERT_NO_FATAL_FAILURE(expect_compiles_to(dense, net));
    std::vector<bool> keep(dense.dimension);
    for (std::size_t p = 0; p < keep.size(); ++p) keep[p] = rng.below(3) != 0;
    const DenseNet restricted = dense_sub_net(dense, keep, false);
    ASSERT_NO_FATAL_FAILURE(expect_compiles_to(restricted, net.restrict(keep)));
    ASSERT_NO_FATAL_FAILURE(
        expect_compiles_to(dense_sub_net(dense, keep, true), net.project(keep)));
    dropped += restricted.size() < dense.size() ? 1 : 0;
  }
  EXPECT_GT(dropped, 100u);
}

TEST(Coverability, BackwardBasisIsMinimal) {
  // Net a -> b, target one b: basis is {b:1} plus {a:1}.
  PetriNet net(2);
  net.add(Config{1, 0}, Config{0, 1});
  const auto basis = petri::backward_basis(net, Config{0, 1});
  ASSERT_EQ(basis.size(), 2u);
  EXPECT_NE(std::find(basis.begin(), basis.end(), Config{0, 1}), basis.end());
  EXPECT_NE(std::find(basis.begin(), basis.end(), Config{1, 0}), basis.end());
  // A target is a marking: a negative count is rejected.
  EXPECT_THROW(petri::backward_basis(net, Config{-1, 1}),
               std::invalid_argument);
}

TEST(Coverability, BackwardStepsSkipNonProducingTransitions) {
  // The e13 stabilization query n! on unary_counting(8). Without the
  // skip every alive pop steps every transition: 40,588 predecessors,
  // and 1,797,948 covers() calls without the signature prefilter.
  const auto c = ppsc::core::unary_counting(8);
  const Config target =
      Config::unit(c.protocol.num_states(), c.protocol.states().at("8!"));
  petri::BackwardBasisStats stats;
  const auto basis =
      petri::backward_basis(c.protocol.net(), target, 1u << 22, &stats);
  EXPECT_EQ(stats.predecessors + stats.skipped, 40588u);
  EXPECT_GT(stats.skipped, 0u);
  EXPECT_EQ(stats.iterations, 278u);
  EXPECT_EQ(stats.basis_final, 278u);
  EXPECT_EQ(stats.basis_peak, 278u);
  EXPECT_EQ(basis.size(), stats.basis_final);
  EXPECT_LE(stats.comparisons, 179794u);
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
  EXPECT_FALSE(missing.stats.truncated);
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

namespace {

// The Karp-Miller loop as it stood before it read the net's enabledness
// index: a dense scan over every transition, with omega-aware
// enabledness and covering tests of its own. petri::karp_miller must
// build the same graph node for node.
bool omega_covers(const Config& a, const Config& b) {
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (a[p] == petri::kOmega) continue;
    if (b[p] == petri::kOmega || a[p] < b[p]) return false;
  }
  return true;
}

bool omega_enabled(const PetriNet& net, std::size_t t, const Config& m) {
  for (const petri::Arc& arc : net.pre(t)) {
    if (m[arc.place] != petri::kOmega && m[arc.place] < arc.count) {
      return false;
    }
  }
  return true;
}

petri::KarpMillerResult dense_karp_miller(const PetriNet& net,
                                          const Config& root,
                                          std::size_t max_nodes) {
  petri::KarpMillerResult result;
  std::set<Config> seen = {root};
  result.nodes.push_back({root, petri::KarpMillerResult::kNoParent, 0});
  for (std::size_t head = 0; head < result.nodes.size(); ++head) {
    for (std::size_t t = 0; t < net.num_transitions(); ++t) {
      const Config current = result.nodes[head].marking;
      if (!omega_enabled(net, t, current)) continue;
      Config next = current;
      for (const petri::Arc& arc : net.delta(t)) {
        if (next[arc.place] != petri::kOmega) next[arc.place] += arc.count;
      }
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t at = head;; at = result.nodes[at].parent) {
          const Config& ancestor = result.nodes[at].marking;
          if (omega_covers(next, ancestor) && next != ancestor) {
            for (std::size_t p = 0; p < next.size(); ++p) {
              if (next[p] != petri::kOmega && ancestor[p] < next[p]) {
                next[p] = petri::kOmega;
                changed = true;
              }
            }
          }
          if (at == 0) break;
        }
      }
      if (seen.count(next)) continue;
      if (result.nodes.size() >= max_nodes) {
        result.truncated = true;
        continue;
      }
      seen.insert(next);
      result.nodes.push_back({std::move(next), head, t});
    }
  }
  return result;
}

}  // namespace

TEST(KarpMiller, MatchesTheDenseScanReferenceOnRandomNets) {
  // The seeded random nets of the explore tests, pumping ones included,
  // at a budget that completes and at half the nodes, which truncates.
  ppsc::util::Xoshiro256 rng(31);
  std::array<std::size_t, kNumShapes> seen{};
  constexpr std::size_t kBudget = 4000;
  std::size_t complete = 0;
  std::size_t truncated = 0;
  std::size_t pumped = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const PetriNet net = random_net(rng, seen).compile();
    const std::size_t d = net.num_states();
    const Config root = random_tokens(rng, d, d, 1 + rng.below(4));
    const petri::KarpMillerResult full = dense_karp_miller(net, root, kBudget);
    if (full.truncated) continue;
    ++complete;
    for (const std::size_t budget : {kBudget, full.nodes.size() / 2}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      const petri::KarpMillerResult want =
          budget == kBudget ? full : dense_karp_miller(net, root, budget);
      const petri::KarpMillerResult got =
          petri::karp_miller(net, root, budget);
      ASSERT_EQ(got.nodes.size(), want.nodes.size());
      for (std::size_t n = 0; n < want.nodes.size(); ++n) {
        ASSERT_EQ(got.nodes[n].marking, want.nodes[n].marking) << "node " << n;
        ASSERT_EQ(got.nodes[n].parent, want.nodes[n].parent) << "node " << n;
        ASSERT_EQ(got.nodes[n].transition, want.nodes[n].transition)
            << "node " << n;
      }
      ASSERT_EQ(got.truncated, want.truncated);
      truncated += got.truncated ? 1 : 0;
    }
    pumped += std::any_of(full.nodes.begin(), full.nodes.end(),
                          [](const petri::KarpMillerNode& node) {
                            return std::count(node.marking.begin(),
                                              node.marking.end(),
                                              petri::kOmega) > 0;
                          })
                  ? 1
                  : 0;
  }
  EXPECT_GE(seen[kNonConservative], 100u);
  EXPECT_GE(complete, 250u);
  EXPECT_GE(truncated, 150u);
  EXPECT_GE(pumped, 100u);
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

TEST(Bottom, WitnessOfAComponentAProjectedStepLeavesIsRejected) {
  const std::vector<bool> q_mask{true, true, false};
  const Config rho{1, 0, 1};
  for (const bool leak : {false, true}) {
    const PetriNet net = toggle_leak(leak);
    petri::BottomWitness witness;  // sigma empty, w = [c -> 2c]
    witness.w = {net.num_transitions() - 1};
    witness.q_mask = q_mask;
    witness.alpha = rho;
    witness.beta = Config{1, 0, 2};
    witness.component_size = 2;
    // Replay, pump and the T|Q component are valid either way; only
    // the leak's Q-projected step (1,0) -> (1,1) breaks the witness.
    EXPECT_EQ(petri::check_bottom_witness(net, rho, witness), !leak);
  }
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

TEST(ControlNet, FromComponentReportsAProjectedStepLeavingIt) {
  const PetriNet net = toggle_leak();
  const std::vector<bool> q_mask{true, true, false};
  const auto component =
      petri::component_of(net.restrict(q_mask), Config{1, 0});
  ASSERT_EQ(component.members.size(), 2u);
  EXPECT_TRUE(component.closed);
  const auto cnet =
      petri::ControlStateNet::from_component(net, component.members, q_mask);
  EXPECT_FALSE(cnet.closed());
  // The leak's steps are dropped; the toggle and the pump's self-loops
  // stay.
  EXPECT_EQ(cnet.num_edges(), 4u);
  const auto pumped = petri::ControlStateNet::from_component(
      toggle_pump(), component.members, q_mask);
  EXPECT_TRUE(pumped.closed());
}

TEST(Euler, CircuitAndNegatives) {
  PetriNet base(1);
  base.add(Config{0}, Config{0});
  petri::ControlStateNet cnet(base, 2);
  cnet.add_edge(0, 0, 1);
  cnet.add_edge(1, 0, 0);
  cnet.add_edge(0, 0, 0);
  const auto circuit = cnet.euler_circuit({2, 2, 1}, 0);
  ASSERT_TRUE(circuit.has_value());
  EXPECT_EQ(circuit->size(), 5u);
  EXPECT_TRUE(cnet.is_cycle(*circuit, 0));
  EXPECT_EQ(cnet.parikh(*circuit), (std::vector<std::uint64_t>{2, 2, 1}));
  EXPECT_EQ(cnet.euler_circuit({0, 0, 0}, 1), std::vector<std::size_t>{});
  // Unbalanced multiset: no circuit.
  EXPECT_FALSE(cnet.euler_circuit({2, 1, 0}, 0).has_value());
  EXPECT_THROW(cnet.euler_circuit({1, 1}, 0), std::invalid_argument);
  EXPECT_THROW(cnet.euler_circuit({1, 1, 1}, 2), std::invalid_argument);

  // Disconnected used edges: no circuit.
  petri::ControlStateNet split(base, 3);
  split.add_edge(0, 0, 0);
  split.add_edge(1, 0, 1);
  EXPECT_FALSE(split.euler_circuit({1, 1}, 0).has_value());
  // A used edge that `start` does not touch: no circuit, while the same
  // loop is a circuit from its own state.
  EXPECT_FALSE(split.euler_circuit({0, 1}, 2).has_value());
  EXPECT_FALSE(split.euler_circuit({0, 1}, 0).has_value());
  EXPECT_EQ(split.euler_circuit({0, 1}, 1), std::vector<std::size_t>{1});
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
  std::set<Config> original;
  const auto graph = petri::explore(net, {root});
  for (std::size_t i = 0; i < graph.size(); ++i) {
    original.insert(graph.config(i));
  }
  std::set<Config> compiled;
  const auto wide =
      petri::explore(reduction.compiled, {reduction.embed(root)});
  for (std::size_t i = 0; i < wide.size(); ++i) {
    compiled.insert(reduction.project(reduction.cleanup(wide.config(i))));
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
