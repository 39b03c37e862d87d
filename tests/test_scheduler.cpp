// Scheduler architecture: pair-table compilation, scheduler
// equivalence across the two schedulers (the agent-array kernel at one
// and several shards, and the census sampler) and a per-draw reference
// loop, the kernel matched draw for draw to per-draw references at one
// and several shards, its exact budget stop and determinism contract,
// the census sampler's exact law in both roles (chi-square and the
// exact expected-time oracle), its overflow bound and its draw-for-draw
// match with a Fenwick-tree sampler on pair nets, the dispatch
// heuristic, and the deterministic parallel sweep runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/constructions.h"
#include "petri/petri_net.h"
#include "sim/census.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace core = ppsc::core;
namespace sim = ppsc::sim;

namespace {

// Re-derives silence from the census by scanning every table cell --
// the ground truth the enabled-pair counts must track.
bool brute_force_silent(const sim::PairRuleTable& table,
                        const core::Config& census) {
  const std::size_t n = table.num_states();
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (table.rule(a, b) == nullptr) continue;
      if (a == b ? census[a] >= 2 : census[a] >= 1 && census[b] >= 1) {
        return false;
      }
    }
  }
  return true;
}

// The classical uniform random-pair scheduler, one draw at a time:
// the per-draw reference the one-shard kernel must reproduce exactly.
struct ReferenceChain {
  ReferenceChain(const sim::PairRuleTable& rules, const core::Config& initial,
                 std::uint64_t seed)
      : table(&rules), rng(seed), census(initial) {
    for (std::size_t q = 0; q < initial.size(); ++q) {
      agents.insert(agents.end(), static_cast<std::size_t>(initial[q]),
                    static_cast<std::uint32_t>(q));
    }
  }
  // Draws one ordered pair of distinct agents; fires its rule if any.
  void draw() {
    const std::uint64_t i = rng.below(agents.size());
    std::uint64_t j = rng.below(agents.size() - 1);
    if (j >= i) ++j;
    ++draws;
    const sim::PairRuleTable::Outcome* outcome =
        table->rule(agents[i], agents[j]);
    if (outcome == nullptr) return;
    --census[agents[i]];
    --census[agents[j]];
    ++census[outcome->first];
    ++census[outcome->second];
    agents[i] = outcome->first;
    agents[j] = outcome->second;
    ++steps;
  }
  // Draws until silent or `max_steps` productive steps; silence can
  // only change on a productive draw.
  void run(std::uint64_t max_steps) {
    for (bool silent = brute_force_silent(*table, census);
         !silent && steps < max_steps;) {
      const std::uint64_t before = steps;
      draw();
      if (steps != before) silent = brute_force_silent(*table, census);
    }
  }

  const sim::PairRuleTable* table;
  ppsc::util::Xoshiro256 rng;
  core::Config census;
  std::vector<std::uint32_t> agents;
  std::uint64_t steps = 0;
  std::uint64_t draws = 0;
};

// The multi-shard kernel one draw at a time: agent k of the
// state-major order is dealt to slice k mod S, shard s draws its K
// pairs per epoch from Xoshiro256::stream(seed, s), and every epoch
// ends with the serial cross-shard exchange, one swap at a time -- four
// draws from the long_jump'd seed stream, then the swap. The reference
// the S > 1 kernel must reproduce exactly, for any worker count.
struct ShardedReference {
  ShardedReference(const sim::PairRuleTable& rules, const core::Config& initial,
                   std::uint64_t seed, std::size_t shards,
                   std::uint64_t length, unsigned exchange_shift)
      : table(&rules),
        exchange_rng(seed),
        census(initial),
        slices(shards),
        counts(shards, core::Config(initial.size())),
        epoch_length(length),
        swaps_per_epoch((shards * length) >> exchange_shift) {
    exchange_rng.long_jump();
    std::size_t dealt = 0;
    for (std::size_t q = 0; q < initial.size(); ++q) {
      for (core::Count k = 0; k < initial[q]; ++k, ++dealt) {
        slices[dealt % shards].push_back(static_cast<std::uint32_t>(q));
        ++counts[dealt % shards][q];
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      rngs.push_back(ppsc::util::Xoshiro256::stream(seed, s));
    }
  }

  bool silent() const { return brute_force_silent(*table, census); }

  // K draws per shard, each shard stopping once it has fired `budget`
  // productive steps, then the exchange.
  void epoch(std::uint64_t budget) {
    for (std::size_t s = 0; s < slices.size(); ++s) {
      std::vector<std::uint32_t>& slice = slices[s];
      const std::uint64_t m = slice.size();
      std::uint64_t fired = 0;
      for (std::uint64_t k = 0; k < epoch_length && fired < budget; ++k) {
        const std::uint64_t i = rngs[s].below(m);
        std::uint64_t j = rngs[s].below(m - 1);
        if (j >= i) ++j;
        ++draws;
        const sim::PairRuleTable::Outcome* outcome =
            table->rule(slice[i], slice[j]);
        if (outcome == nullptr) continue;
        --counts[s][slice[i]];
        --counts[s][slice[j]];
        ++counts[s][outcome->first];
        ++counts[s][outcome->second];
        slice[i] = outcome->first;
        slice[j] = outcome->second;
        ++fired;
      }
      steps += fired;
    }
    exchange();
    census = core::Config(census.size());
    for (const core::Config& shard_counts : counts) {
      for (std::size_t q = 0; q < census.size(); ++q) {
        census[q] += shard_counts[q];
      }
    }
  }

  void exchange() {
    const std::size_t num_shards = slices.size();
    for (std::uint64_t k = 0; k < swaps_per_epoch; ++k) {
      const std::size_t s =
          static_cast<std::size_t>(exchange_rng.below(num_shards));
      std::size_t t =
          static_cast<std::size_t>(exchange_rng.below(num_shards - 1));
      if (t >= s) ++t;
      const std::uint64_t i = exchange_rng.below(slices[s].size());
      const std::uint64_t j = exchange_rng.below(slices[t].size());
      const std::uint32_t qa = slices[s][i];
      const std::uint32_t qb = slices[t][j];
      if (qa != qb) {
        slices[s][i] = qb;
        slices[t][j] = qa;
        --counts[s][qa];
        ++counts[s][qb];
        --counts[t][qb];
        ++counts[t][qa];
      }
    }
    cross_swaps += swaps_per_epoch;
  }

  // Epochs until silent or `max_steps` productive steps, as
  // ShardedSimulator::run does.
  void run(std::uint64_t max_steps) {
    while (!silent() && steps < max_steps) epoch(max_steps - steps);
  }

  const sim::PairRuleTable* table;
  ppsc::util::Xoshiro256 exchange_rng;
  core::Config census;
  std::vector<std::vector<std::uint32_t>> slices;
  std::vector<core::Config> counts;
  std::vector<ppsc::util::Xoshiro256> rngs;
  std::uint64_t epoch_length;
  std::uint64_t swaps_per_epoch;
  std::uint64_t steps = 0;
  std::uint64_t draws = 0;
  std::uint64_t cross_swaps = 0;
};

// The census sampler on a Fenwick tree over the same a-major cells:
// the same geometric null skip, and the cell found by a top-down
// descent for the smallest weight prefix sum above r = below(W).
// CensusSimulator must match it draw for draw. Weights are
// recomputed over every cell after each step; only cells touching a
// moved state can change, so the count of changed weights is the
// sampler's weight_updates().
struct FenwickCensusReference {
  struct Cell {
    std::uint32_t a, b, first, second;
  };

  FenwickCensusReference(const sim::PairRuleTable& table,
                         const core::Config& initial, std::uint64_t seed)
      : rng(seed), census(initial) {
    for (const core::Count c : initial) population += c;
    for (std::uint32_t a = 0; a < table.num_states(); ++a) {
      for (std::uint32_t b : table.partners(a)) {
        if (b < a) continue;
        const sim::PairRuleTable::Outcome* outcome = table.rule(a, b);
        cells.push_back({a, b, outcome->first, outcome->second});
      }
    }
    weights.assign(cells.size(), 0);
    tree.assign(cells.size() + 1, 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      weights[i] = weight(cells[i]);
      add(i, weights[i]);
      total += weights[i];
    }
    while (top * 2 <= cells.size()) top *= 2;
  }

  long long weight(const Cell& cell) const {
    const long long ca = census[cell.a];
    return cell.a == cell.b ? ca * (ca - 1) : 2 * ca * census[cell.b];
  }
  void add(std::size_t cell, long long delta) {
    for (std::size_t i = cell + 1; i < tree.size(); i += i & (0 - i)) {
      tree[i] += delta;
    }
  }
  std::size_t find(long long r) const {
    std::size_t pos = 0;
    for (std::size_t bit = top; bit != 0; bit >>= 1) {
      const std::size_t next = pos + bit;
      if (next < tree.size() && tree[next] <= r) {
        pos = next;
        r -= tree[next];
      }
    }
    return pos;
  }

  bool step() {
    if (total == 0) return false;
    const long long ordered_pairs = population * (population - 1);
    if (total < ordered_pairs) {
      const double p =
          static_cast<double>(total) / static_cast<double>(ordered_pairs);
      const double u = rng.unit();
      const double skipped = std::floor(std::log1p(-u) / std::log1p(-p));
      interactions += skipped >= 0x1.0p62
                          ? (1ull << 62)
                          : static_cast<std::uint64_t>(skipped);
    }
    ++interactions;
    const Cell& cell = cells[find(static_cast<long long>(
        rng.below(static_cast<std::uint64_t>(total))))];
    --census[cell.a];
    --census[cell.b];
    ++census[cell.first];
    ++census[cell.second];
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const long long updated = weight(cells[i]);
      if (updated == weights[i]) continue;
      add(i, updated - weights[i]);
      total += updated - weights[i];
      weights[i] = updated;
      ++weight_updates;
    }
    ++steps;
    return true;
  }

  ppsc::util::Xoshiro256 rng;
  core::Config census;
  core::Count population = 0;
  std::vector<Cell> cells;
  std::vector<long long> weights;
  std::vector<long long> tree;  // 1-based Fenwick tree over weights
  std::size_t top = 1;          // largest power of two <= cells.size()
  long long total = 0;
  std::uint64_t steps = 0;
  std::uint64_t interactions = 0;
  std::uint64_t weight_updates = 0;
};

struct DirectStats {
  std::size_t converged = 0;
  std::size_t correct = 0;
  double mean_steps = 0.0;
};

// Drives `runs` seeded per-draw reference chains to silence.
DirectStats run_reference_direct(const core::ConstructedProtocol& cp,
                                 const std::vector<core::Count>& input,
                                 std::size_t runs) {
  const auto table = sim::PairRuleTable::build(cp.protocol);
  DirectStats stats;
  if (!table) {
    ADD_FAILURE() << "protocol did not compile to a pair table";
    return stats;
  }
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    ReferenceChain reference(*table, initial, 1000 + r);
    reference.run(2000000);
    if (brute_force_silent(*table, reference.census)) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, reference.census);
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(reference.steps);
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

// Same measurement through the census sampler.
DirectStats run_census_direct(const core::ConstructedProtocol& cp,
                              const std::vector<core::Count>& input,
                              std::size_t runs) {
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  DirectStats stats;
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::CensusSimulator simulator(cp.protocol.net(), initial, 1000 + r);
    while (simulator.steps() < 2000000 && simulator.step()) {
    }
    if (simulator.silent()) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, simulator.census());
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(simulator.steps());
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

// A width-3 net off the pair role: widths 1, 2 and 3, and two
// transitions (burn, nudge) on one pre multiset {A, A, B}.
core::Protocol width_three_net() {
  core::ProtocolBuilder b;
  const std::size_t A = b.add_state("A", false);
  const std::size_t B = b.add_state("B", true);
  const std::size_t C = b.add_state("C", false);
  b.add_input(A);
  b.add_rule("burn", {{A, 2}, {B, 1}}, {{C, 3}});
  b.add_rule("nudge", {{A, 2}, {B, 1}}, {{A, 1}, {B, 1}, {C, 1}});
  b.add_rule("convert", {{A, 1}, {B, 1}}, {{B, 2}});
  b.add_rule("decay", {{C, 1}}, {{A, 1}});
  b.add_rule("merge", {{A, 1}, {C, 2}}, {{B, 3}});
  return b.build();
}

// C(n, k) in 128 bits, for the exact weights the tests recompute.
unsigned __int128 exact_binomial(core::Count n, core::Count k) {
  if (k > n) return 0;
  unsigned __int128 c = 1;
  for (core::Count i = 0; i < k; ++i) c = c * (n - i) / (i + 1);
  return c;
}

// The count law's weight of every transition of `net` in `census`:
// the product of C(c_q, k_q) over its pre arcs.
std::vector<unsigned __int128> exact_weights(const ppsc::petri::PetriNet& net,
                                             const core::Config& census) {
  std::vector<unsigned __int128> weights;
  for (std::size_t t = 0; t < net.num_transitions(); ++t) {
    unsigned __int128 w = 1;
    for (const ppsc::petri::Arc& arc : net.pre(t)) {
      w *= exact_binomial(census[arc.place], arc.count);
    }
    weights.push_back(w);
  }
  return weights;
}

// One census-sampler step from `census` on `runs` seeded samplers,
// against the count law: the histogram of successor censuses (each
// expecting the summed weight of the transitions producing it) must
// hold no successor of a zero-weight transition, and its chi-square
// statistic is returned, with the number of successors in
// `categories`.
double one_step_chi_square(const ppsc::petri::PetriNet& net,
                           const core::Config& census, std::size_t runs,
                           std::size_t& categories) {
  const std::vector<unsigned __int128> weights = exact_weights(net, census);
  std::map<core::Config, double> weight_of;
  double total = 0.0;
  for (std::size_t t = 0; t < weights.size(); ++t) {
    if (weights[t] == 0) continue;
    weight_of[net.fire(t, census)] += static_cast<double>(weights[t]);
    total += static_cast<double>(weights[t]);
  }
  std::map<core::Config, std::size_t> observed;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::CensusSimulator simulator(net, census, 5000 + r);
    EXPECT_FALSE(simulator.pairwise());
    EXPECT_TRUE(simulator.step());
    ++observed[simulator.census()];
  }
  for (const auto& [next, count] : observed) {
    EXPECT_EQ(weight_of.count(next), 1u) << "fired a zero-weight transition";
  }
  categories = weight_of.size();
  double chi_square = 0.0;
  for (const auto& [next, w] : weight_of) {
    const double expected = static_cast<double>(runs) * w / total;
    const double diff = static_cast<double>(observed[next]) - expected;
    chi_square += diff * diff / expected;
  }
  return chi_square;
}

// Mean productive steps to silence over `runs` census-sampler runs
// from `initial` on `net`, with its sample standard deviation.
std::pair<double, double> sampled_mean_and_sd(
    const ppsc::petri::PetriNet& net, const core::Config& initial,
    std::size_t runs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::CensusSimulator simulator(net, initial, 9000 + r);
    while (simulator.step()) {
    }
    const double steps = static_cast<double>(simulator.steps());
    sum += steps;
    sum_sq += steps * steps;
  }
  const double n = static_cast<double>(runs);
  const double mean = sum / n;
  return {mean, std::sqrt((sum_sq - sum * mean) / (n - 1.0))};
}

}  // namespace

TEST(PairRuleTable, CompilesDeterministicPairwiseNets) {
  const auto unary = core::unary_counting(3);
  EXPECT_TRUE(sim::PairRuleTable::build(unary.protocol).has_value());
  const auto belief = core::threshold_belief(4);
  EXPECT_TRUE(sim::PairRuleTable::build(belief.protocol).has_value());
  const auto e42 = core::example_4_2(3);
  EXPECT_TRUE(sim::PairRuleTable::build(e42.protocol).has_value());
}

TEST(PairRuleTable, RejectsNonPairwiseNets) {
  // Example 4.1 has a width-n transition.
  const auto wide = core::example_4_1(3);
  EXPECT_FALSE(sim::PairRuleTable::build(wide.protocol).has_value());
  // The destructive unary variant has a width-1 decay rule.
  const auto destructive = core::destructive_unary_counting(3);
  EXPECT_FALSE(sim::PairRuleTable::build(destructive.protocol).has_value());
}

TEST(PairRuleTable, AcceptsDuplicateIdenticalRules) {
  // Registering the same transition twice (in any spelling) is
  // deterministic: build() keeps the first copy and its name, so the
  // table, the census sampler and the exact solver all fire it with
  // one weight. Regression for the bug where any occupied cell was
  // treated as a conflict, kicking protocols off the agent fast path.
  // convert competes with retire, so a doubled convert would change
  // the law.
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  const auto C = b.add_state("C", false);
  b.add_input(A);
  b.add_leaders(B, 1);
  b.add_pair_rule("convert", A, B, B, B);
  b.add_pair_rule("convert_again", A, B, B, B);
  b.add_rule("convert_spelled_out", {{B, 1}, {A, 1}}, {{B, 2}});
  b.add_pair_rule("retire", B, B, C, C);
  const core::Protocol protocol = b.build();
  ASSERT_EQ(protocol.net().num_transitions(), 2u);
  EXPECT_EQ(protocol.rule_name(0), "convert");
  EXPECT_EQ(protocol.rule_name(1), "retire");
  const auto table = sim::PairRuleTable::build(protocol);
  ASSERT_TRUE(table.has_value());
  const sim::PairRuleTable::Outcome* cell =
      table->rule(static_cast<std::uint32_t>(A),
                  static_cast<std::uint32_t>(B));
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->first, static_cast<std::uint32_t>(B));
  EXPECT_EQ(cell->second, static_cast<std::uint32_t>(B));

  // The sampler's mean against exact E at x = 8, within 4 standard
  // errors over 4000 runs (about 1.6% of E ~ 10.79). The same net with
  // convert listed twice, built as a bare net, has E ~ 11.49, more than
  // twice that tolerance away, so the check tells the two laws apart.
  const core::Config initial = protocol.initial_config({8});
  const sim::ExpectedTimeResult exact =
      sim::expected_interactions_to_silence(protocol, {8});
  ASSERT_TRUE(exact.computed);
  constexpr std::size_t kRuns = 4000;
  const auto [mean, sd] = sampled_mean_and_sd(protocol.net(), initial, kRuns);
  const double tolerance = 4.0 * sd / std::sqrt(static_cast<double>(kRuns));
  EXPECT_NEAR(mean, exact.expected_steps, tolerance);
  ppsc::petri::PetriNet doubled(protocol.num_states());
  for (const std::size_t t : {0, 0, 1}) {
    doubled.add(protocol.net().pre(t), protocol.net().post(t));
  }
  const sim::ExpectedTimeResult doubled_exact =
      sim::expected_interactions_to_silence(doubled, initial);
  ASSERT_TRUE(doubled_exact.computed);
  EXPECT_GT(std::abs(doubled_exact.expected_steps - exact.expected_steps),
            2.0 * tolerance);
}

TEST(PairRuleTable, RejectsConflictingRulesOnSamePrePair) {
  core::ProtocolBuilder b;
  const auto A = b.add_state("A", false);
  const auto B = b.add_state("B", true);
  b.add_input(A);
  b.add_pair_rule("toB", A, B, B, B);
  b.add_pair_rule("toA", A, B, A, A);
  EXPECT_FALSE(sim::PairRuleTable::build(b.build()).has_value());
}

TEST(PairRuleTable, RejectsStateSpacesAboveTheSizeCap) {
  // A dense table over kMaxStates + 1 states would hold ~16.8M cells;
  // build() refuses it up front, and dispatch takes the census sampler
  // exactly as for a non-pairwise net.
  core::ProtocolBuilder b;
  for (std::size_t q = 0; q <= sim::PairRuleTable::kMaxStates; ++q) {
    b.add_state("q" + std::to_string(q), false);
  }
  b.add_input(0);
  const core::Protocol protocol = b.build();
  ASSERT_EQ(protocol.num_states(), 4097u);
  const auto table = sim::PairRuleTable::build(protocol);
  EXPECT_FALSE(table.has_value());
  EXPECT_EQ(sim::planned_scheduler(sim::RunOptions{}, table.has_value(),
                                   protocol.num_states(), 1 << 16)
                .scheduler,
            sim::SchedulerChoice::kCensus);
}

TEST(PairRuleTable, CellsMatchTheRules) {
  // majority(): A=0, B=1, a=2, b=3; cancel A+B -> a+b,
  // recruitA A+b -> A+a, recruitB B+a -> B+b, tie a+b -> b+b.
  const auto maj = core::majority();
  const auto table = sim::PairRuleTable::build(maj.protocol);
  ASSERT_TRUE(table.has_value());
  const sim::PairRuleTable::Outcome* cancel = table->rule(0, 1);
  ASSERT_NE(cancel, nullptr);
  EXPECT_EQ(cancel->first, 2u);
  EXPECT_EQ(cancel->second, 3u);
  // The mirrored cell swaps the outcome.
  const sim::PairRuleTable::Outcome* mirrored = table->rule(1, 0);
  ASSERT_NE(mirrored, nullptr);
  EXPECT_EQ(mirrored->first, 3u);
  EXPECT_EQ(mirrored->second, 2u);
  // No rule for two strong A agents.
  EXPECT_EQ(table->rule(0, 0), nullptr);

  // Diagonal cell: threshold_belief's L0 + L0 -> L1 + L0.
  const auto belief = core::threshold_belief(3);
  const auto belief_table = sim::PairRuleTable::build(belief.protocol);
  ASSERT_TRUE(belief_table.has_value());
  const sim::PairRuleTable::Outcome* up = belief_table->rule(0, 0);
  ASSERT_NE(up, nullptr);
  // The successor multiset is {L0, L1}; which agent takes which state
  // is arbitrary for a diagonal cell (the pair draw is symmetric).
  EXPECT_EQ(std::min(up->first, up->second), 0u);
  EXPECT_EQ(std::max(up->first, up->second), 1u);
}

TEST(SchedulerEquivalence, UnaryCountingStatsAgree) {
  // The productive-step chains of the per-draw reference and the
  // census sampler are identical in distribution, so their means over
  // matched run counts must agree within sampling noise (generous 20%
  // margin; the seeds are fixed, so this is deterministic).
  const auto cp = core::unary_counting(3);
  const DirectStats agent = run_reference_direct(cp, {24}, 48);
  const DirectStats census = run_census_direct(cp, {24}, 48);
  EXPECT_EQ(agent.converged, 48u);
  EXPECT_EQ(census.converged, 48u);
  EXPECT_EQ(agent.correct, 48u);
  EXPECT_EQ(census.correct, 48u);
  EXPECT_GT(agent.mean_steps, 0.0);
  EXPECT_NEAR(agent.mean_steps, census.mean_steps, 0.2 * census.mean_steps);
}

TEST(SchedulerEquivalence, Example42StatsAgree) {
  const auto cp = core::example_4_2(3);
  const DirectStats agent = run_reference_direct(cp, {5}, 48);
  const DirectStats census = run_census_direct(cp, {5}, 48);
  EXPECT_EQ(agent.converged, 48u);
  EXPECT_EQ(census.converged, 48u);
  EXPECT_EQ(agent.correct, 48u);
  EXPECT_EQ(census.correct, 48u);
  EXPECT_NEAR(agent.mean_steps, census.mean_steps, 0.2 * census.mean_steps);
}

TEST(ParallelSweep, BitIdenticalAcrossThreadCounts) {
  const auto cp = core::unary_counting(3);
  const sim::ConvergenceStats one =
      sim::measure_convergence_parallel(cp, {40}, 12, {}, 1);
  const sim::ConvergenceStats four =
      sim::measure_convergence_parallel(cp, {40}, 12, {}, 4);
  EXPECT_EQ(one.runs, four.runs);
  EXPECT_EQ(one.converged, four.converged);
  EXPECT_EQ(one.correct, four.correct);
  // Bit-identical, not merely close: per-run seeds and the
  // index-ordered aggregation make thread count irrelevant.
  EXPECT_EQ(one.mean_steps, four.mean_steps);
  EXPECT_EQ(one.max_steps_observed, four.max_steps_observed);

  const sim::ConvergenceStats serial = sim::measure_convergence(cp, {40}, 12);
  EXPECT_EQ(serial.mean_steps, one.mean_steps);
  EXPECT_EQ(serial.max_steps_observed, one.max_steps_observed);
}

TEST(ParallelSweep, CountFallbackMatchesRunToSilence) {
  // The destructive variant cannot compile to a pair table, so the
  // sweep must take the count path (the census sampler) -- whose runs
  // are exactly run_to_silence with seeds options.seed + r.
  const auto cp = core::destructive_unary_counting(3);
  ASSERT_FALSE(sim::PairRuleTable::build(cp.protocol).has_value());
  sim::RunOptions options;
  options.seed = 77;
  const sim::ConvergenceStats stats =
      sim::measure_convergence_parallel(cp, {6}, 3, options, 2);
  EXPECT_EQ(stats.converged, 3u);
  EXPECT_EQ(stats.correct, 3u);
  double total = 0.0;
  double observed_max = 0.0;
  for (std::size_t r = 0; r < 3; ++r) {
    sim::RunOptions per_run = options;
    per_run.seed = options.seed + r;
    const sim::SilenceRun run =
        sim::run_to_silence(cp.protocol, {6}, per_run);
    EXPECT_TRUE(run.silent);
    total += static_cast<double>(run.steps);
    observed_max =
        std::max(observed_max, static_cast<double>(run.steps));
  }
  EXPECT_EQ(stats.mean_steps, total / 3.0);
  EXPECT_EQ(stats.max_steps_observed, observed_max);
}

// Drives seeded sharded simulations to silence directly.
DirectStats run_sharded_direct(const core::ConstructedProtocol& cp,
                               const std::vector<core::Count>& input,
                               std::size_t runs,
                               const sim::ShardedOptions& options) {
  const auto table = sim::PairRuleTable::build(cp.protocol);
  DirectStats stats;
  if (!table) {
    ADD_FAILURE() << "protocol did not compile to a pair table";
    return stats;
  }
  const bool expected = cp.predicate(input);
  const core::Config initial = cp.protocol.initial_config(input);
  double total = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    sim::ShardedSimulator simulator(*table, initial, 1000 + r, options);
    simulator.run(2000000);
    if (simulator.silent()) {
      ++stats.converged;
      const sim::OutputSummary out =
          sim::summarize_output(cp.protocol, simulator.census());
      if (out.unanimous(expected)) ++stats.correct;
    }
    total += static_cast<double>(simulator.steps());
  }
  stats.mean_steps = total / static_cast<double>(runs);
  return stats;
}

TEST(ShardedSimulator, OneShardMatchesThePerDrawReferenceAtEveryBarrier) {
  // The 1-shard contract: one slice, no exchange, the reference's very
  // RNG draw sequence -- census, steps and raw draws must match bit for
  // bit at every epoch barrier, and the barrier silence flag must
  // agree with a brute-force rescan. threshold_belief(300) runs every
  // agent into state 299, so a slot narrower than the kernel's 16 bits
  // would truncate states and fail the census check.
  struct Case {
    core::ConstructedProtocol cp;
    core::Count agents;
  };
  const Case cases[] = {{core::unary_counting(4), 1000},
                        {core::threshold_belief(300), 600}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cp.family);
    const auto table = sim::PairRuleTable::build(c.cp.protocol);
    ASSERT_TRUE(table.has_value());
    const core::Config initial = c.cp.protocol.initial_config({c.agents});
    sim::ShardedOptions options;
    options.shards = 1;
    sim::ShardedSimulator kernel(*table, initial, 99, options);
    ASSERT_EQ(kernel.num_shards(), 1u);
    ReferenceChain reference(*table, initial, 99);
    for (int e = 0; !kernel.silent(); ++e) {
      ASSERT_LT(e, 100000);
      kernel.epoch();
      for (std::uint64_t k = 0; k < kernel.epoch_length(); ++k) {
        reference.draw();
      }
      ASSERT_EQ(kernel.census(), reference.census) << "epoch " << e;
      ASSERT_EQ(kernel.steps(), reference.steps) << "epoch " << e;
      ASSERT_EQ(kernel.interactions(), reference.draws) << "epoch " << e;
      ASSERT_EQ(kernel.silent(), brute_force_silent(*table, kernel.census()))
          << "epoch " << e;
    }
    EXPECT_GT(kernel.epochs(), 1u);
  }
}

TEST(ShardedSimulator, OneShardRunStopsExactlyAtTheBudget) {
  // run(max) on one shard stops right after the draw that brings the
  // productive count to max, even mid-group and mid-epoch, so
  // successive budgets continue the reference chain without a gap.
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({1000});
  sim::ShardedOptions options;
  options.shards = 1;
  sim::ShardedSimulator kernel(*table, initial, 4242, options);
  ReferenceChain reference(*table, initial, 4242);
  for (const std::uint64_t max : {1u, 2u, 3u, 63u, 64u, 65u, 300u, 301u}) {
    EXPECT_EQ(kernel.run(max), max);
    reference.run(max);
    ASSERT_EQ(kernel.steps(), max);
    ASSERT_EQ(reference.steps, max);
    ASSERT_EQ(kernel.census(), reference.census) << "budget " << max;
    ASSERT_EQ(kernel.interactions(), reference.draws) << "budget " << max;
  }
  // Past the budgets, both run to the same silent census.
  kernel.run(~std::uint64_t{0});
  reference.run(~std::uint64_t{0});
  EXPECT_TRUE(kernel.silent());
  EXPECT_EQ(kernel.census(), reference.census);
  EXPECT_EQ(kernel.steps(), reference.steps);
}

TEST(ShardedSimulator, MultiShardMatchesThePerDrawReferenceAtEveryBarrier) {
  // The S > 1 contract: for every (seed, shards), whatever the worker
  // count, the kernel's chain is the per-draw reference's -- the same
  // deal, the same shard streams and the same exchange swaps -- so
  // census, steps, draws and swaps match at every epoch barrier. 40
  // agents at S = 8 and shift 0 leave slices of five agents, where
  // one epoch's swaps hit most positions more than once.
  struct Case {
    core::ConstructedProtocol cp;
    core::Count agents;
    std::size_t shards;
    unsigned shift;
  };
  std::vector<Case> cases;
  for (const std::size_t shards : {2u, 3u, 8u}) {
    for (const unsigned shift : {0u, 3u}) {
      cases.push_back({core::unary_counting(4), 1000, shards, shift});
      cases.push_back({core::threshold_belief(12), 701, shards, shift});
    }
  }
  cases.push_back({core::unary_counting(4), 40, 8, 0});
  for (const Case& c : cases) {
    const auto table = sim::PairRuleTable::build(c.cp.protocol);
    ASSERT_TRUE(table.has_value());
    const core::Config initial = c.cp.protocol.initial_config({c.agents});
    for (const unsigned workers : {1u, 4u}) {
      SCOPED_TRACE(c.cp.family + " n=" + std::to_string(c.agents) +
                   " S=" + std::to_string(c.shards) +
                   " shift=" + std::to_string(c.shift) +
                   " workers=" + std::to_string(workers));
      sim::ShardedOptions options;
      options.shards = c.shards;
      options.workers = workers;
      options.exchange_shift = c.shift;
      sim::ShardedSimulator kernel(*table, initial, 31 + c.agents, options);
      ASSERT_EQ(kernel.num_shards(), c.shards);
      ShardedReference reference(*table, initial, 31 + c.agents, c.shards,
                                 kernel.epoch_length(), c.shift);
      ASSERT_EQ(kernel.census(), reference.census);
      for (int e = 0; e < 400 && !kernel.silent(); ++e) {
        kernel.epoch();
        reference.epoch(~std::uint64_t{0});
        ASSERT_EQ(kernel.census(), reference.census) << "epoch " << e;
        ASSERT_EQ(kernel.steps(), reference.steps) << "epoch " << e;
        ASSERT_EQ(kernel.interactions(), reference.draws) << "epoch " << e;
        ASSERT_EQ(kernel.cross_swaps(), reference.cross_swaps)
            << "epoch " << e;
        ASSERT_EQ(kernel.silent(), reference.silent()) << "epoch " << e;
      }
      EXPECT_GT(kernel.cross_swaps(), 0u);
    }
  }
}

TEST(ShardedSimulator, MultiShardBudgetsResumeThePerDrawReference) {
  // run(max) budgets that stop mid-epoch, each resumed by the next:
  // every shard stops after the draw that fills its share of the
  // budget, the exchange still runs, and the next run() continues the
  // same chain as the reference's budgeted epochs.
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({3000});
  for (const unsigned workers : {1u, 4u}) {
    for (const unsigned shift : {0u, 3u}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " shift=" + std::to_string(shift));
      sim::ShardedOptions options;
      options.shards = 3;
      options.workers = workers;
      options.exchange_shift = shift;
      sim::ShardedSimulator kernel(*table, initial, 808, options);
      ShardedReference reference(*table, initial, 808, 3,
                                 kernel.epoch_length(), shift);
      // The last budget runs both to silence (about 4,700 steps).
      for (const std::uint64_t max :
           {1u, 2u, 3u, 63u, 64u, 65u, 500u, 501u, 4000u, 100000u}) {
        kernel.run(max);
        reference.run(max);
        ASSERT_TRUE(kernel.steps() >= max || kernel.silent())
            << "budget " << max;
        ASSERT_EQ(kernel.census(), reference.census) << "budget " << max;
        ASSERT_EQ(kernel.steps(), reference.steps) << "budget " << max;
        ASSERT_EQ(kernel.interactions(), reference.draws) << "budget " << max;
        ASSERT_EQ(kernel.cross_swaps(), reference.cross_swaps)
            << "budget " << max;
      }
      EXPECT_TRUE(kernel.silent());
    }
  }
}

TEST(ShardedSimulator, MultiShardRunOvershootsByLessThanShardsTimesEpoch) {
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({20000});
  sim::ShardedOptions options;
  options.shards = 4;
  options.workers = 1;
  for (const std::uint64_t max : {1u, 100u, 1000u, 5000u}) {
    sim::ShardedSimulator kernel(*table, initial, 11, options);
    kernel.run(max);
    ASSERT_FALSE(kernel.silent()) << "budget " << max;
    EXPECT_GE(kernel.steps(), max);
    EXPECT_LT(kernel.steps() - max,
              kernel.num_shards() * kernel.epoch_length())
        << "budget " << max;
  }
}

TEST(ShardedSimulator, EpochLengthIsDerivedFromSliceAndTable) {
  // K = clamp(max(m / 8, R), 64, 8192) for slice size m and partner
  // entries R.
  const auto cp = core::unary_counting(8);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  std::uint64_t partner_entries = 0;
  for (std::size_t q = 0; q < table->num_states(); ++q) {
    partner_entries += table->partners(q).size();
  }
  ASSERT_EQ(partner_entries, 277u);
  const auto epoch_length = [&](core::Count n, std::size_t shards) {
    sim::ShardedOptions options;
    options.shards = shards;
    options.workers = 1;
    return sim::ShardedSimulator(*table, cp.protocol.initial_config({n}), 1,
                                 options)
        .epoch_length();
  };
  // R dominates at 1000 agents, m / 8 at 4000; the ceiling holds from
  // slices of 65,536 agents up.
  EXPECT_EQ(epoch_length(1000, 1), 277u);
  EXPECT_EQ(epoch_length(4000, 1), 500u);
  EXPECT_EQ(epoch_length(1000000, 1), 8192u);
  EXPECT_EQ(epoch_length(8 * 65536, 8), 8192u);
  // unary_counting(2) has R = 25: the floor of 64 applies.
  const auto small = core::unary_counting(2);
  const auto small_table = sim::PairRuleTable::build(small.protocol);
  ASSERT_TRUE(small_table.has_value());
  sim::ShardedOptions one;
  one.shards = 1;
  const sim::ShardedSimulator floor(
      *small_table, small.protocol.initial_config({64}), 1, one);
  EXPECT_EQ(floor.epoch_length(), 64u);
}

TEST(ShardedSimulator, TinyPopulationsAreSilent) {
  const auto cp = core::unary_counting(2);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  for (const core::Count n : {0, 1}) {
    sim::ShardedSimulator tiny(*table, cp.protocol.initial_config({n}), 1);
    EXPECT_EQ(tiny.num_shards(), 1u);
    EXPECT_TRUE(tiny.silent());
    EXPECT_FALSE(tiny.epoch());
    EXPECT_EQ(tiny.run(100), 0u);
    EXPECT_EQ(tiny.interactions(), 0u);
  }
}

TEST(ShardedSimulator, ShardCountIsClampedSoEverySliceCanDraw) {
  // A slice of fewer than two agents never draws; before the clamp a
  // forced 8-shard run on 5 agents looped forever on a non-silent
  // census.
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::ShardedOptions options;
  options.shards = 8;
  options.workers = 1;
  const sim::ShardedSimulator five(*table, cp.protocol.initial_config({5}), 1,
                                   options);
  EXPECT_EQ(five.num_shards(), 2u);
  const sim::ShardedSimulator three(*table, cp.protocol.initial_config({3}),
                                    1, options);
  EXPECT_EQ(three.num_shards(), 1u);

  sim::RunOptions forced;
  forced.scheduler = sim::SchedulerChoice::kSharded;
  forced.shards = 8;
  forced.max_steps = 1000;
  const sim::ConvergenceStats stats =
      sim::measure_convergence(cp, {5}, 1, forced);
  EXPECT_EQ(stats.converged, 1u);
  EXPECT_EQ(stats.correct, 1u);
}

TEST(ShardedSimulator, SeedDeterministicAndWorkerCountInvariant) {
  // Same (seed, shards) => bit-identical chain; worker threads only
  // decide where a shard's batch executes, never what it computes.
  if (ppsc::util::parallel_width() < 4) {
    GTEST_SKIP() << "needs a pool of four threads";
  }
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({20000});
  sim::ShardedOptions serial;
  serial.shards = 4;
  serial.workers = 1;
  sim::ShardedOptions threaded = serial;
  threaded.workers = 4;
  sim::ShardedSimulator a(*table, initial, 7, serial);
  sim::ShardedSimulator b(*table, initial, 7, threaded);
  sim::ShardedSimulator c(*table, initial, 7, threaded);
  ASSERT_EQ(b.num_workers(), 4u);
  for (int e = 0; e < 40; ++e) {
    a.epoch();
    b.epoch();
    c.epoch();
  }
  EXPECT_EQ(a.census(), b.census());
  EXPECT_EQ(a.steps(), b.steps());
  EXPECT_EQ(a.interactions(), b.interactions());
  EXPECT_EQ(a.cross_swaps(), b.cross_swaps());
  EXPECT_EQ(b.census(), c.census());
  EXPECT_EQ(b.steps(), c.steps());
}

TEST(ShardedSimulator, ConservesPopulationAndDetectsSilence) {
  // Cross-shard exchange must conserve the census it permutes, and the
  // barrier silence check must agree with a brute-force rescan.
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::ShardedOptions options;
  options.shards = 3;
  options.workers = 1;
  options.exchange_shift = 0;  // maximal exchange stress
  sim::ShardedSimulator simulator(
      *table, cp.protocol.initial_config({120}), 5, options);
  const core::Count population = simulator.population();
  ASSERT_EQ(population, 120);
  int epochs = 0;
  while (simulator.epoch()) {
    ASSERT_EQ(core::Protocol::population(simulator.census()), population);
    ASSERT_EQ(simulator.silent(),
              brute_force_silent(*table, simulator.census()));
    ASSERT_LT(++epochs, 100000);
  }
  EXPECT_TRUE(simulator.silent());
  EXPECT_TRUE(brute_force_silent(*table, simulator.census()));
  EXPECT_GT(simulator.cross_swaps(), 0u);
  EXPECT_GE(simulator.interactions(), simulator.steps());
}

TEST(SchedulerEquivalence, ShardedMatchesAgentDistribution) {
  // The mixing argument in sim/sharded.h: sharded draws with periodic
  // cross-shard exchange preserve the uniform-pair law up to O(K/m)
  // per-draw bias. Empirically the mean convergence time over matched
  // run counts must agree with the per-draw reference within sampling
  // noise (the seeds are fixed, so this is deterministic).
  const auto cp = core::unary_counting(3);
  sim::ShardedOptions options;
  options.shards = 4;
  options.workers = 1;
  const DirectStats agent = run_reference_direct(cp, {2048}, 12);
  const DirectStats sharded = run_sharded_direct(cp, {2048}, 12, options);
  EXPECT_EQ(agent.converged, 12u);
  EXPECT_EQ(sharded.converged, 12u);
  EXPECT_EQ(agent.correct, 12u);
  EXPECT_EQ(sharded.correct, 12u);
  EXPECT_GT(agent.mean_steps, 0.0);
  EXPECT_NEAR(agent.mean_steps, sharded.mean_steps, 0.2 * agent.mean_steps);
}

TEST(SchedulerEquivalence, CensusMatchesAgentDistribution) {
  // Conditional on productivity the census scheduler samples the very
  // cell law of the agent-array scheduler, so the productive chains
  // are equal in distribution -- not just close.
  const auto cp = core::unary_counting(3);
  const DirectStats agent = run_reference_direct(cp, {500}, 32);
  const DirectStats census = run_census_direct(cp, {500}, 32);
  EXPECT_EQ(agent.converged, 32u);
  EXPECT_EQ(census.converged, 32u);
  EXPECT_EQ(agent.correct, 32u);
  EXPECT_EQ(census.correct, 32u);
  EXPECT_NEAR(agent.mean_steps, census.mean_steps, 0.2 * agent.mean_steps);
}

TEST(CensusSimulator, TracksSilenceExactly) {
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  sim::CensusSimulator simulator(cp.protocol.net(),
                                 cp.protocol.initial_config({12}), 7);
  const core::Count population = simulator.population();
  ASSERT_EQ(population, 12);
  ASSERT_FALSE(simulator.silent());
  while (simulator.step()) {
    ASSERT_EQ(simulator.silent(),
              brute_force_silent(*table, simulator.census()));
    ASSERT_EQ(core::Protocol::population(simulator.census()), population);
    ASSERT_LT(simulator.steps(), 100000u);
  }
  EXPECT_TRUE(simulator.silent());
  EXPECT_TRUE(brute_force_silent(*table, simulator.census()));
  // The geometric null skip accounts at least one draw per productive
  // step, so the sampled raw-draw total dominates the productive one.
  EXPECT_GE(simulator.interactions(), simulator.steps());
  EXPECT_GT(simulator.weight_updates(), 0u);
}

TEST(CensusSimulator, SamplesCellsWithExactWeights) {
  // One productive step from a fixed census on each of kRuns seeded
  // simulators. The fired cell must follow w(a,b)/W exactly. Cells
  // (a,b) and (b,a) leave the same census behind, so the histogram is
  // over successor censuses, each expecting the summed weight of the
  // cells that produce it. Firing a zero-weight cell would drive some
  // count negative -- a successor outside the expected set.
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const auto& id = cp.protocol.states();
  core::Config census(cp.protocol.num_states());
  census[id.at("1")] = 6;
  census[id.at("2")] = 3;
  census[id.at("3")] = 1;
  census[id.at("0!")] = 2;
  std::map<core::Config, long long> weight_of;
  long long total = 0;
  std::size_t zero_cells = 0;
  for (std::uint32_t a = 0; a < table->num_states(); ++a) {
    for (const std::uint32_t b : table->partners(a)) {
      const long long w =
          a == b ? census[a] * (census[a] - 1) : census[a] * census[b];
      if (w == 0) {
        ++zero_cells;
        continue;
      }
      const sim::PairRuleTable::Outcome* outcome = table->rule(a, b);
      core::Config next = census;
      --next[a];
      --next[b];
      ++next[outcome->first];
      ++next[outcome->second];
      weight_of[next] += w;
      total += w;
    }
  }
  ASSERT_GE(zero_cells, 10u);

  constexpr std::size_t kRuns = 20000;
  std::map<core::Config, std::size_t> observed;
  for (std::size_t r = 0; r < kRuns; ++r) {
    sim::CensusSimulator simulator(cp.protocol.net(), census, 5000 + r);
    ASSERT_TRUE(simulator.step());
    ++observed[simulator.census()];
  }
  for (const auto& [next, count] : observed) {
    ASSERT_EQ(weight_of.count(next), 1u) << "fired a zero-weight cell";
  }
  // 8 successor censuses (W = 130, weights 4..36) give 7 degrees of
  // freedom; the 0.001 upper quantile of chi-square(7) is 24.32. The
  // smallest expected count is kRuns * 4 / 130 ~ 615, far above the
  // usual 5.
  ASSERT_EQ(weight_of.size(), 8u);
  double chi_square = 0.0;
  for (const auto& [next, w] : weight_of) {
    const double expected = static_cast<double>(kRuns) *
                            static_cast<double>(w) /
                            static_cast<double>(total);
    const double diff = static_cast<double>(observed[next]) - expected;
    chi_square += diff * diff / expected;
  }
  EXPECT_LT(chi_square, 24.32);
}

TEST(CensusSimulator, MatchesAFenwickTreeSamplerDrawForDraw) {
  // Scanning per-state row sums must pick the cell a Fenwick-tree
  // descent picks for every r, so the chain, the skipped null draws
  // and the weight-update count all match at every step -- on tables
  // from 6 to 62 states, with null draws skipped throughout.
  struct Case {
    core::ConstructedProtocol cp;
    std::vector<core::Count> input;
  };
  const Case cases[] = {{core::unary_counting(8), {3000}},
                        {core::example_4_2(8), {7}},
                        {core::example_4_2(8), {3000}},
                        {core::threshold_belief(8), {3000}},
                        {core::threshold_belief(62), {3000}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.cp.family + " x=" + std::to_string(c.input[0]));
    const auto table = sim::PairRuleTable::build(c.cp.protocol);
    ASSERT_TRUE(table.has_value());
    const core::Config initial = c.cp.protocol.initial_config(c.input);
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      sim::CensusSimulator census(c.cp.protocol.net(), initial, seed);
      FenwickCensusReference reference(*table, initial, seed);
      for (int k = 0; k < 20000; ++k) {
        const bool fired = census.step();
        ASSERT_EQ(fired, reference.step()) << "step " << k;
        if (!fired) break;
        ASSERT_EQ(census.census(), reference.census) << "step " << k;
        ASSERT_EQ(census.interactions(), reference.interactions)
            << "step " << k;
        ASSERT_EQ(census.weight_updates(), reference.weight_updates)
            << "step " << k;
        ASSERT_EQ(census.enabled_pairs(), reference.total) << "step " << k;
      }
      EXPECT_GT(census.steps(), 0u);
    }
  }
}

TEST(CensusSimulator, SoleEnabledCellAlwaysFires) {
  // One enabled cell, (1,1) with weight 2, among the table's other,
  // disabled cells: every draw must land on it, whatever the seed.
  // (A floating-point alias table needs a fixup for exactly this
  // shape.)
  const auto cp = core::unary_counting(3);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const auto& id = cp.protocol.states();
  core::Config census(cp.protocol.num_states());
  census[id.at("0")] = 1000;
  census[id.at("1")] = 2;
  core::Config merged = census;
  merged[id.at("1")] = 0;
  merged[id.at("0")] = 1001;
  merged[id.at("2")] = 1;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    sim::CensusSimulator simulator(cp.protocol.net(), census, seed);
    ASSERT_EQ(simulator.enabled_pairs(), 2);
    ASSERT_TRUE(simulator.step());
    ASSERT_EQ(simulator.census(), merged) << "seed " << seed;
    ASSERT_TRUE(simulator.silent());
  }
}

TEST(CensusSimulator, MeanStepsMatchTheExactOracle) {
  // The census chain is the exact productive-step chain, so its mean
  // time to silence must match expected_interactions_to_silence within
  // 4 standard errors: |mean - E| < 4 s / sqrt(kRuns), s the sample
  // standard deviation. With kRuns = 4000 that is a relative
  // tolerance of about 0.6% for unary_counting(3) at 12 agents
  // (E ~ 15.97) and 1.8% for Example 4.2 with 3 leaders at x = 4
  // (E ~ 8.47).
  constexpr std::size_t kRuns = 4000;
  const auto check = [&](const core::ConstructedProtocol& cp,
                         const std::vector<core::Count>& input) {
    const sim::ExpectedTimeResult exact =
        sim::expected_interactions_to_silence(cp.protocol, input);
    ASSERT_TRUE(exact.computed);
    const auto [mean, sd] = sampled_mean_and_sd(
        cp.protocol.net(), cp.protocol.initial_config(input), kRuns);
    EXPECT_NEAR(mean, exact.expected_steps,
                4.0 * sd / std::sqrt(static_cast<double>(kRuns)));
  };
  check(core::unary_counting(3), {12});
  check(core::example_4_2(3), {4});
}

TEST(CensusSimulator, TinyPopulationsAreSilent) {
  const auto cp = core::unary_counting(2);
  sim::CensusSimulator empty(cp.protocol.net(), cp.protocol.initial_config({0}),
                             1);
  EXPECT_TRUE(empty.silent());
  EXPECT_FALSE(empty.step());
  sim::CensusSimulator loner(cp.protocol.net(), cp.protocol.initial_config({1}),
                             1);
  EXPECT_TRUE(loner.silent());
  EXPECT_FALSE(loner.step());
  EXPECT_EQ(loner.steps(), 0u);
}

TEST(CensusSimulator, RejectsPopulationsWhosePairCountOverflows) {
  // On a pair net the weight bound is n(n-1), which must fit in a long
  // long: kMaxPopulation is the last n that does. The accepted case is
  // only constructed, never stepped.
  const auto cp = core::unary_counting(2);
  const core::Count limit = sim::CensusSimulator::kMaxPopulation;
  const sim::CensusSimulator at_limit(cp.protocol.net(),
                                      cp.protocol.initial_config({limit}), 1);
  EXPECT_TRUE(at_limit.pairwise());
  EXPECT_EQ(at_limit.population(), limit);
  const core::Config over_limit = cp.protocol.initial_config({limit + 1});
  EXPECT_THROW(sim::CensusSimulator rejected(cp.protocol.net(), over_limit, 1),
               std::invalid_argument);
}

TEST(CensusSimulator, RejectsWeightBoundsPastLongLong) {
  // Off pair nets the bound is the sum over widths w of m_w C(n, w).
  // Example 4.1 with n = 5 has one pre multiset of each width 2..4 and
  // two of width 5: C(N,2) + C(N,3) + C(N,4) + C(N,5) is 9.2209e18 at
  // N = 16,174, 2.5e15 under 2^63, and passes 2^63 at N = 16,175. With
  // n = 64 every width up to the population counts, 2^N - N - 1, which
  // fits at N = 63 and not at N = 64.
  const auto check = [](const core::ConstructedProtocol& cp,
                        core::Count last) {
    SCOPED_TRACE(cp.family + " n=" + std::to_string(last));
    const sim::CensusSimulator under(
        cp.protocol.net(), cp.protocol.initial_config({last}), 1);
    EXPECT_FALSE(under.pairwise());
    const core::Config over = cp.protocol.initial_config({last + 1});
    EXPECT_THROW(sim::CensusSimulator rejected(cp.protocol.net(), over, 1),
                 std::invalid_argument);
  };
  check(core::example_4_1(5), 16174);
  check(core::example_4_1(64), 63);
}

TEST(CensusSimulator, WeightsStayExactAtTheBound) {
  // Example 4.1 with n = 5 at the largest accepted population: W starts
  // at C(16174, 5) ~ 9.2e18, within 0.03% of 2^63. W must equal a
  // 128-bit recomputation of the count law at every step to silence.
  const auto cp = core::example_4_1(5);
  const ppsc::petri::PetriNet& net = cp.protocol.net();
  sim::CensusSimulator simulator(net, cp.protocol.initial_config({16174}), 3);
  for (;;) {
    unsigned __int128 total = 0;
    for (const unsigned __int128 w : exact_weights(net, simulator.census())) {
      total += w;
    }
    ASSERT_LE(total, static_cast<unsigned __int128>(LLONG_MAX));
    ASSERT_EQ(simulator.enabled_pairs(), static_cast<long long>(total))
        << "step " << simulator.steps();
    if (!simulator.step()) break;
  }
  EXPECT_EQ(simulator.census(), (core::Config{0, 16174}));
  EXPECT_EQ(simulator.interactions(), simulator.steps());
}

TEST(CensusSimulator, CountLawSamplesExactInstantiationWeights) {
  // One step from a fixed census on each of kRuns seeded samplers, off
  // the pair role: the fired transition must follow prod C(c_q, k_q) / W
  // exactly. Each test compares 20,000 draws with chi-square at the
  // 0.001 upper quantile; simulating the alternative in which one weight
  // is 15% off (convert here, t1 on Example 4.1) rejects it with
  // probability above 0.99.
  constexpr std::size_t kRuns = 20000;
  std::size_t categories = 0;

  // Width-3 net at A = 5, B = 3, C = 4: burn and nudge share the pre
  // {A, A, B} (30 each), convert 15, decay 4, merge 30; W = 109, five
  // successors, 4 degrees of freedom, quantile 18.47, smallest expected
  // count 20000 * 4 / 109 ~ 734.
  const core::Protocol wide = width_three_net();
  EXPECT_LT(one_step_chi_square(wide.net(), {5, 3, 4}, kRuns, categories),
            18.47);
  EXPECT_EQ(categories, 5u);

  // Example 4.1 with n = 4 at A = 6, B = 2: t4 C(6,4) = 15, t1 12, t2 30,
  // t3 40; W = 97, four successors, 3 degrees of freedom, quantile 16.27.
  const auto e41 = core::example_4_1(4);
  EXPECT_LT(one_step_chi_square(e41.protocol.net(), {6, 2}, kRuns, categories),
            16.27);
  EXPECT_EQ(categories, 4u);
}

TEST(CensusSimulator, CountLawMeanStepsMatchTheExactOracle) {
  // Off the pair role the sampler is still the exact productive-step
  // chain, so its mean time to silence must match
  // expected_interactions_to_silence within 4 standard errors over 4000
  // runs, as on pair nets: about 1.0% of E ~ 3.80 for Example 4.1 with
  // n = 3 at x = 7, and 0.32% of E ~ 13.66 for
  // destructive_unary_counting(3) at x = 6. A true bias of 6 standard
  // errors fails the check with probability 0.977.
  constexpr std::size_t kRuns = 4000;
  const auto check = [&](const core::ConstructedProtocol& cp,
                         core::Count input) {
    SCOPED_TRACE(cp.family);
    const sim::ExpectedTimeResult exact =
        sim::expected_interactions_to_silence(cp.protocol, {input});
    ASSERT_TRUE(exact.computed);
    const core::Config initial = cp.protocol.initial_config({input});
    const sim::CensusSimulator probe(cp.protocol.net(), initial, 1);
    EXPECT_FALSE(probe.pairwise());
    const auto [mean, sd] =
        sampled_mean_and_sd(cp.protocol.net(), initial, kRuns);
    EXPECT_NEAR(mean, exact.expected_steps,
                4.0 * sd / std::sqrt(static_cast<double>(kRuns)));
  };
  check(core::example_4_1(3), 7);
  check(core::destructive_unary_counting(3), 6);
}

TEST(DispatchHeuristic, PicksByPopulationAndStateCount) {
  using sim::SchedulerChoice;
  const auto plan = [](const sim::RunOptions& options, bool has_table,
                       std::size_t states, core::Count population) {
    const sim::SchedulerPlan p =
        sim::planned_scheduler(options, has_table, states, population);
    return std::make_pair(p.scheduler, p.shards);
  };
  const sim::RunOptions automatic;
  // No pair table: every run takes the census sampler.
  EXPECT_EQ(plan(automatic, false, 5, 100),
            std::make_pair(SchedulerChoice::kCensus, std::size_t{0}));
  // Small populations run the one-shard agent-array kernel.
  EXPECT_EQ(plan(automatic, true, 5, 100),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  // Small state space + large population: census path.
  EXPECT_EQ(plan(automatic, true, 5, 1 << 16),
            std::make_pair(SchedulerChoice::kCensus, std::size_t{0}));
  EXPECT_EQ(plan(automatic, true, 5, core::Count{1} << 30),
            std::make_pair(SchedulerChoice::kCensus, std::size_t{0}));
  // Large state space: census is out; the kernel shards once the agent
  // array outgrows the cache.
  EXPECT_EQ(plan(automatic, true, 100, 1 << 16),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  EXPECT_EQ(plan(automatic, true, 100, (core::Count{1} << 22) - 1),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  EXPECT_EQ(plan(automatic, true, 100, core::Count{1} << 22),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{8}));
  // Forcing overrides the heuristic but never conjures a pair table.
  sim::RunOptions forced;
  forced.scheduler = SchedulerChoice::kSharded;
  EXPECT_EQ(plan(forced, true, 5, 100),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{1}));
  forced.shards = 4;
  EXPECT_EQ(plan(forced, true, 5, 100),
            std::make_pair(SchedulerChoice::kSharded, std::size_t{4}));
  EXPECT_EQ(plan(forced, false, 5, 100),
            std::make_pair(SchedulerChoice::kCensus, std::size_t{0}));

  // The census handoff: only a kAuto run on the one-shard kernel over
  // a table of at most 64 states gets a floor, ceil(n(n-1) / 16).
  ASSERT_EQ(sim::SchedulerPlan::kHandoffDivisor, 16);
  const auto floor = [](const sim::RunOptions& options, std::size_t states,
                        core::Count population) {
    return sim::planned_scheduler(options, true, states, population)
        .handoff_pairs;
  };
  EXPECT_EQ(floor(automatic, 5, 100), 619);  // 9900 / 16 = 618.75
  EXPECT_EQ(floor(automatic, 5, 17), 17);    // 272 / 16 = 17 exactly
  EXPECT_EQ(floor(automatic, 64, (1 << 16) - 1), 268423169);
  EXPECT_EQ(floor(automatic, 5, 2), 1);
  EXPECT_EQ(floor(automatic, 5, 1), 0);
  EXPECT_EQ(floor(automatic, 5, 0), 0);
  EXPECT_EQ(floor(automatic, 65, 100), 0);      // no census table
  EXPECT_EQ(floor(automatic, 5, 1 << 16), 0);   // census from the start
  EXPECT_EQ(sim::planned_scheduler(automatic, false, 5, 100).handoff_pairs,
            0);
  sim::RunOptions auto_sharded;
  auto_sharded.shards = 4;  // the kernel would overshoot the budget
  EXPECT_EQ(floor(auto_sharded, 5, 100), 0);
  auto_sharded.shards = 1;
  EXPECT_EQ(floor(auto_sharded, 5, 100), 619);
  forced = {};
  forced.scheduler = SchedulerChoice::kSharded;
  EXPECT_EQ(floor(forced, 5, 100), 0);
  forced.scheduler = SchedulerChoice::kCensus;
  EXPECT_EQ(floor(forced, 5, 100), 0);
}

// The kernel part of a kAuto run: the one-shard kernel on the run's
// seed, stopped under the plan's pair floor. Returns true iff the run
// hands off (stopped neither silent nor at the budget) after at least
// one productive kernel step.
bool hands_off_mid_run(const core::ConstructedProtocol& cp,
                       const sim::PairRuleTable& table, core::Count input,
                       std::uint64_t seed, std::uint64_t max_steps) {
  const core::Config initial = cp.protocol.initial_config({input});
  const sim::SchedulerPlan plan = sim::planned_scheduler(
      {}, true, cp.protocol.num_states(),
      core::Protocol::population(initial));
  EXPECT_EQ(plan.shards, 1u);
  EXPECT_GT(plan.handoff_pairs, 0);
  sim::ShardedOptions options;
  options.shards = 1;
  sim::ShardedSimulator kernel(table, initial, seed, options);
  kernel.run(max_steps, plan.handoff_pairs);
  return !kernel.silent() && kernel.steps() < max_steps &&
         kernel.steps() > 0;
}

TEST(ShardedSimulator, PairFloorStopsAtTheFirstBarrierBelowIt) {
  // run(max, floor) is the epoch-by-epoch chain stopped at the first
  // barrier (construction included) whose enabled-pairs count is below
  // the floor.
  const auto cp = core::unary_counting(4);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  const core::Config initial = cp.protocol.initial_config({1000});
  sim::ShardedOptions options;
  options.shards = 1;
  for (const long long floor : {1000LL, 20000LL, 999000LL, 999001LL}) {
    sim::ShardedSimulator stopped(*table, initial, 31, options);
    stopped.run(~std::uint64_t{0}, floor);
    sim::ShardedSimulator stepped(*table, initial, 31, options);
    while (stepped.enabled_pairs() >= floor && stepped.epoch()) {
    }
    EXPECT_EQ(stopped.epochs(), stepped.epochs()) << "floor " << floor;
    EXPECT_EQ(stopped.census(), stepped.census()) << "floor " << floor;
    EXPECT_EQ(stopped.interactions(), stepped.interactions());
    EXPECT_LT(stopped.enabled_pairs(), floor);
  }
  // 1000 agents in state 1 enable all 999,000 ordered pairs: a floor
  // of 999,000 lets the first epoch run, one pair more stops the run
  // before it.
  sim::ShardedSimulator at_start(*table, initial, 31, options);
  EXPECT_EQ(at_start.run(~std::uint64_t{0}, 999001), 0u);
  EXPECT_EQ(at_start.epochs(), 0u);
}

TEST(CensusHandoff, MeanStepsMatchTheExactOracle) {
  // kAuto runs that start on the kernel and finish on the census
  // sampler are still the exact productive-step chain, so their mean
  // time to silence must match expected_interactions_to_silence within
  // 4 standard errors, |mean - E| < 4 s / sqrt(kRuns), as in
  // CensusSimulator.MeanStepsMatchTheExactOracle. The cases are
  // chosen so most runs hand off mid-run: unary_counting(4) at 24
  // agents (E ~ 37.16, a tolerance of about 0.3%, so a step lost or
  // counted twice at the handoff fails) and Example 4.2 with 6 leaders
  // at x = 5 (E ~ 352.7, about 4%).
  constexpr std::size_t kRuns = 4000;
  const auto check = [&](const core::ConstructedProtocol& cp,
                         core::Count input) {
    const sim::ExpectedTimeResult exact =
        sim::expected_interactions_to_silence(cp.protocol, {input});
    ASSERT_TRUE(exact.computed);
    const auto table = sim::PairRuleTable::build(cp.protocol);
    ASSERT_TRUE(table.has_value());
    double sum = 0.0;
    double sum_sq = 0.0;
    std::size_t mid_run = 0;
    for (std::size_t r = 0; r < kRuns; ++r) {
      sim::RunOptions options;
      options.seed = 9000 + r;
      options.max_steps = ~std::uint64_t{0};
      const sim::ConvergenceStats stats =
          sim::measure_convergence(cp, {input}, 1, options);
      ASSERT_EQ(stats.correct, 1u);
      sum += stats.mean_steps;
      sum_sq += stats.mean_steps * stats.mean_steps;
      if (hands_off_mid_run(cp, *table, input, options.seed,
                            options.max_steps)) {
        ++mid_run;
      }
    }
    EXPECT_GT(mid_run, kRuns / 2);
    const double n = static_cast<double>(kRuns);
    const double mean = sum / n;
    const double sd = std::sqrt((sum_sq - sum * mean) / (n - 1.0));
    EXPECT_NEAR(mean, exact.expected_steps, 4.0 * sd / std::sqrt(n));
  };
  check(core::unary_counting(4), 24);
  check(core::example_4_2(6), 5);
}

TEST(CensusHandoff, StopsExactlyAtTheBudget) {
  // Example 4.2 with 32 leaders at x = 31 hands off within its first
  // few epochs and practically never falls silent: the census sampler
  // runs the rest of the budget, and the run ends on it exactly.
  const auto cp = core::example_4_2(32);
  const auto table = sim::PairRuleTable::build(cp.protocol);
  ASSERT_TRUE(table.has_value());
  for (const std::uint64_t max : {1000u, 1001u, 4097u, 30000u}) {
    sim::RunOptions options;
    options.seed = 5;
    options.max_steps = max;
    ASSERT_TRUE(hands_off_mid_run(cp, *table, 31, options.seed, max))
        << "budget " << max;
    const sim::ConvergenceStats stats =
        sim::measure_convergence(cp, {31}, 1, options);
    EXPECT_EQ(stats.converged, 0u) << "budget " << max;
    EXPECT_EQ(stats.max_steps_observed, static_cast<double>(max));
  }
}

TEST(CensusHandoff, SweepsAreBitIdenticalAcrossThreadCounts) {
  const auto check = [](const core::ConstructedProtocol& cp,
                        core::Count input, std::uint64_t max_steps) {
    sim::RunOptions options;
    options.max_steps = max_steps;
    const sim::ConvergenceStats one =
        sim::measure_convergence_parallel(cp, {input}, 16, options, 1);
    const sim::ConvergenceStats four =
        sim::measure_convergence_parallel(cp, {input}, 16, options, 4);
    EXPECT_EQ(one.converged, four.converged) << cp.family;
    EXPECT_EQ(one.correct, four.correct) << cp.family;
    EXPECT_EQ(one.mean_steps, four.mean_steps) << cp.family;
    EXPECT_EQ(one.max_steps_observed, four.max_steps_observed) << cp.family;
  };
  check(core::unary_counting(8), 1000, 20000000);
  check(core::example_4_2(6), 5, 20000000);
  check(core::example_4_2(32), 31, 20000);
}

TEST(DispatchHeuristic, ForcedSchedulersAgreeOnOutcomes) {
  // Every scheduler shares the productive-step law, so forcing any of
  // them through the sweep -- the kernel at one and at two shards
  // included -- must reproduce the same convergence and correctness
  // verdicts on a protocol every path can run.
  const auto cp = core::unary_counting(3);
  const std::pair<sim::SchedulerChoice, std::size_t> arms[] = {
      {sim::SchedulerChoice::kSharded, 1},
      {sim::SchedulerChoice::kSharded, 2},
      {sim::SchedulerChoice::kCensus, 0},
  };
  for (const auto& [choice, shards] : arms) {
    sim::RunOptions options;
    options.scheduler = choice;
    options.shards = shards;
    const sim::ConvergenceStats stats =
        sim::measure_convergence(cp, {40}, 6, options);
    EXPECT_EQ(stats.converged, 6u) << static_cast<int>(choice) << "/" << shards;
    EXPECT_EQ(stats.correct, 6u) << static_cast<int>(choice) << "/" << shards;
    EXPECT_GT(stats.mean_steps, 0.0)
        << static_cast<int>(choice) << "/" << shards;
  }
}

TEST(DestructiveUnary, ComputesTheSamePredicate) {
  const auto cp = core::destructive_unary_counting(3);
  const sim::ConvergenceStats above = sim::measure_convergence(cp, {5}, 3);
  EXPECT_EQ(above.correct, 3u);
  const sim::ConvergenceStats below = sim::measure_convergence(cp, {2}, 3);
  EXPECT_EQ(below.correct, 3u);
}

// The census sampler's count-role trajectory, pinned draw for draw:
// the census after a fixed budget, the steps to silence, the changed
// weights and the silent census, for three seeds each on a wide net
// (Example 4.1, width 3) and a non-pairwise width-1/2 net. Any change
// to the entry order, the weight formula or the dependents index moves
// them.
TEST(CensusSimulator, PinnedCountLawTrajectoriesForFixedSeeds) {
  struct Pin {
    std::uint64_t seed;
    core::Config mid;
    std::uint64_t steps;
    std::uint64_t weight_updates;
  };
  struct Case {
    core::ConstructedProtocol cp;
    core::Count input;
    std::uint64_t mid_steps;
    core::Config silent;
    std::vector<Pin> pins;
  };
  const std::vector<Case> cases = {
      {core::example_4_1(3), 40, 8, {0, 40},
       {{1, {18, 22}, 19, 56},
        {7, {22, 18}, 20, 58},
        {2024, {19, 21}, 19, 53}}},
      {core::destructive_unary_counting(4), 30, 25,
       {0, 22, 0, 0, 0, 1, 0, 0, 0, 7, 0},
       {{1, {5, 3, 1, 0, 1, 1, 0, 0, 0, 2, 17}, 78, 387},
        {7, {1, 5, 3, 2, 0, 0, 0, 0, 0, 2, 17}, 74, 408},
        {2024, {1, 6, 1, 1, 0, 0, 0, 2, 0, 1, 18}, 80, 444}}},
  };
  for (const Case& c : cases) {
    for (const Pin& pin : c.pins) {
      SCOPED_TRACE(c.cp.family + " seed " + std::to_string(pin.seed));
      sim::CensusSimulator simulator(
          c.cp.protocol.net(), c.cp.protocol.initial_config({c.input}),
          pin.seed);
      EXPECT_EQ(simulator.run(c.mid_steps), c.mid_steps);
      EXPECT_EQ(simulator.census(), pin.mid);
      simulator.run(1000000);
      EXPECT_TRUE(simulator.silent());
      EXPECT_EQ(simulator.steps(), pin.steps);
      EXPECT_EQ(simulator.weight_updates(), pin.weight_updates);
      EXPECT_EQ(simulator.census(), c.silent);
    }
  }
}
