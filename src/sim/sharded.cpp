#include "sim/sharded.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/parallel.h"

namespace ppsc {
namespace sim {

namespace {

// Draw positions for this many pairs before touching any agent slot:
// the position draws are state-independent, so they can all be issued
// first and both slots of every pair prefetched while the RNG works on
// the next ones. Applying the outcomes stays strictly sequential,
// which keeps the chain identical to drawing and applying one at a
// time (pair k's application sees every earlier application).
constexpr std::uint64_t kGroup = 64;

// How many planned swaps ahead the exchange apply prefetches both
// agent slots: enough far-cache misses in flight to cover their
// latency.
constexpr std::size_t kSwapLookahead = 16;

// Bounds of the derived epoch length K (see sim/sharded.h).
constexpr std::uint64_t kMinEpoch = 64;
constexpr std::uint64_t kMaxEpoch = 8192;

}  // namespace

ShardedSimulator::ShardedSimulator(const PairRuleTable& table,
                                   const core::Config& initial,
                                   std::uint64_t seed,
                                   ShardedOptions options)
    : table_(&table),
      exchange_rng_(seed),
      exchange_shift_(std::min(options.exchange_shift, 63u)),
      counts_(initial.size()) {
  if (initial.size() != table.num_states()) {
    throw std::invalid_argument(
        "ShardedSimulator: configuration dimension does not match table");
  }
  core::Count population = 0;
  for (const core::Count c : initial) {
    if (c < 0 || c > PairRuleTable::kMaxPopulation - population) {
      throw std::invalid_argument(
          "ShardedSimulator: negative count or population above "
          "PairRuleTable::kMaxPopulation");
    }
    population += c;
  }
  const std::size_t n = static_cast<std::size_t>(population);
  // Every slice keeps at least two agents, so every shard can draw.
  const std::size_t num_shards = std::max<std::size_t>(
      1, std::min(options.shards == 0 ? ShardedOptions::kDefaultShards
                                      : options.shards,
                  n / 2));
  std::uint64_t partner_entries = 0;
  for (std::size_t q = 0; q < table.num_states(); ++q) {
    partner_entries += table.partners(q).size();
  }
  epoch_length_ = std::clamp<std::uint64_t>(
      std::max<std::uint64_t>(n / num_shards / 8, partner_entries),
      kMinEpoch, kMaxEpoch);
  // The exchange stream lives on the long_jump axis, disjoint from the
  // jump-derived shard streams for any draw budget.
  exchange_rng_.long_jump();

  agents_.resize(n);
  shards_.resize(num_shards);
  slices_.resize(num_shards);
  {
    // Slice s holds positions {i : i mod S == s} of the state-major
    // agent order, made contiguous: sizes differ by at most one and
    // every state's count stripes across the shards in floor/ceil
    // shares -- the proportional initial censuses the mixing argument
    // starts from. At S = 1 this is exactly the state-major fill.
    std::vector<Slot*> cursor(num_shards);
    std::size_t offset = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const std::size_t size = n / num_shards + (s < n % num_shards ? 1 : 0);
      slices_[s] = {agents_.data() + offset, size};
      cursor[s] = slices_[s].base;
      shards_[s].counts = core::Config(initial.size());
      shards_[s].rng = util::Xoshiro256::stream(seed, s);
      offset += size;
    }
    // State q occupies positions [begin, end) of that order, and slice
    // s receives the (end + S-1-s)/S - (begin + S-1-s)/S of them that
    // are congruent to s, one run per state and slice.
    std::size_t begin = 0;
    for (std::size_t q = 0; q < initial.size(); ++q) {
      const std::size_t end = begin + static_cast<std::size_t>(initial[q]);
      for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t lift = num_shards - 1 - s;
        const std::size_t run =
            (end + lift) / num_shards - (begin + lift) / num_shards;
        cursor[s] = std::fill_n(cursor[s], run, static_cast<Slot>(q));
        shards_[s].counts[q] += static_cast<core::Count>(run);
      }
      begin = end;
    }
  }
  if (num_shards > 1) {
    plan_.resize(static_cast<std::size_t>(
        (static_cast<std::uint64_t>(num_shards) * epoch_length_) >>
        exchange_shift_));
  }
  refresh_global();

  const unsigned width = util::parallel_width();
  workers_ = static_cast<unsigned>(std::min<std::size_t>(
      {options.workers == 0 ? width : options.workers, width, num_shards}));
}

void ShardedSimulator::run_shard_batch(std::size_t s) {
  Shard& shard = shards_[s];
  const std::uint64_t m = slices_[s].size;
  if (m < 2) return;
  Slot* const slice = slices_[s].base;
  std::uint64_t pi[kGroup];
  std::uint64_t pj[kGroup];
  std::uint64_t remaining = epoch_length_;
  std::uint64_t room = epoch_budget_;
  while (remaining > 0 && room > 0) {
    // A group never holds more draws than productive steps the budget
    // has room for, so every pre-drawn pair is applied and the batch
    // stops right after the draw that exhausts the budget -- the chain
    // (and the RNG position) of drawing one pair at a time.
    const std::uint64_t group = std::min({remaining, kGroup, room});
    for (std::uint64_t k = 0; k < group; ++k) {
      // One uniform ordered pair of distinct slots of the slice.
      const std::uint64_t i = shard.rng.below(m);
      std::uint64_t j = shard.rng.below(m - 1);
      if (j >= i) ++j;
      pi[k] = i;
      pj[k] = j;
      __builtin_prefetch(slice + i, 1);
      __builtin_prefetch(slice + j, 1);
    }
    std::uint64_t fired = 0;
    for (std::uint64_t k = 0; k < group; ++k) {
      const PairRuleTable::Outcome* outcome =
          table_->rule(slice[pi[k]], slice[pj[k]]);
      if (outcome == nullptr) continue;
      --shard.counts[slice[pi[k]]];
      --shard.counts[slice[pj[k]]];
      ++shard.counts[outcome->first];
      ++shard.counts[outcome->second];
      slice[pi[k]] = static_cast<Slot>(outcome->first);
      slice[pj[k]] = static_cast<Slot>(outcome->second);
      ++fired;
    }
    shard.productive += fired;
    shard.draws += group;
    ++shard.batches;
    room -= fired;
    remaining -= group;
  }
}

void ShardedSimulator::draw_plan() {
  const std::size_t num_shards = slices_.size();
  for (Swap& swap : plan_) {
    const std::size_t s =
        static_cast<std::size_t>(exchange_rng_.below(num_shards));
    std::size_t t =
        static_cast<std::size_t>(exchange_rng_.below(num_shards - 1));
    if (t >= s) ++t;
    swap.a = slices_[s].base + exchange_rng_.below(slices_[s].size);
    swap.b = slices_[t].base + exchange_rng_.below(slices_[t].size);
    swap.s = static_cast<std::uint32_t>(s);
    swap.t = static_cast<std::uint32_t>(t);
  }
}

void ShardedSimulator::apply_plan() {
  const std::size_t swaps = plan_.size();
  for (std::size_t k = 0; k < swaps; ++k) {
    if (k + kSwapLookahead < swaps) {
      __builtin_prefetch(plan_[k + kSwapLookahead].a, 1);
      __builtin_prefetch(plan_[k + kSwapLookahead].b, 1);
    }
    const Swap& swap = plan_[k];
    const Slot qa = *swap.a;
    const Slot qb = *swap.b;
    if (qa != qb) {
      *swap.a = qb;
      *swap.b = qa;
      --shards_[swap.s].counts[qa];
      ++shards_[swap.s].counts[qb];
      --shards_[swap.t].counts[qb];
      ++shards_[swap.t].counts[qa];
    }
  }
  cross_swaps_ += swaps;
}

void ShardedSimulator::refresh_global() {
  for (std::size_t q = 0; q < counts_.size(); ++q) counts_[q] = 0;
  steps_ = 0;
  interactions_ = 0;
  prefetch_batches_ = 0;
  for (const Shard& shard : shards_) {
    for (std::size_t q = 0; q < counts_.size(); ++q) {
      counts_[q] += shard.counts[q];
    }
    steps_ += shard.productive;
    interactions_ += shard.draws;
    prefetch_batches_ += shard.batches;
  }
  // Recomputed exactly at every barrier.
  enabled_pairs_ = table_->enabled_pairs(counts_);
}

bool ShardedSimulator::run_epoch(std::uint64_t budget) {
  if (enabled_pairs_ == 0) return false;
  ++epochs_;
  epoch_budget_ = budget;
  const std::size_t num_shards = shards_.size();
  util::parallel_for(
      num_shards + 1,
      [this, num_shards](std::size_t i) {
        if (i == num_shards) {
          draw_plan();
        } else {
          run_shard_batch(i);
        }
      },
      workers_);
  apply_plan();
  refresh_global();
  return enabled_pairs_ != 0;
}

std::uint64_t ShardedSimulator::run(std::uint64_t max_steps,
                                    long long pair_floor) {
  while (enabled_pairs_ != 0 && enabled_pairs_ >= pair_floor &&
         steps_ < max_steps) {
    run_epoch(max_steps - steps_);
  }
  return steps_;
}

void ShardedSimulator::publish_metrics() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (!registry.enabled()) return;
  if (shards_.size() == 1) {
    registry.add("sim.agent.runs", 1);
    registry.add("sim.agent.draws", interactions_);
    registry.add("sim.agent.productive", steps_);
    return;
  }
  registry.add("sim.shard.runs", 1);
  registry.add("sim.shard.epochs", epochs_);
  registry.add("sim.shard.draws", interactions_);
  registry.add("sim.shard.productive", steps_);
  registry.add("sim.shard.batches", prefetch_batches_);
  registry.add("sim.shard.cross_swaps", cross_swaps_);
}

}  // namespace sim
}  // namespace ppsc
