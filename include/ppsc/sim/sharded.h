// The agent-array simulation kernel: the uniform random-pair scheduler
// over an explicit agent array, split into S contiguous per-shard
// slices so the two agent-slot accesses of a draw hit a slice that
// fits the cache hierarchy, with draws issued in prefetch batches and
// the slices re-mixed by periodic cross-shard exchanges. At S = 1 it
// is the classical scheduler itself -- one slice, no exchange, one
// uniform ordered pair of distinct agents per draw -- and it serves
// every agent-array run, from a few agents to 10^9; at S > 1 the
// shards additionally run on the process's thread pool
// (util/parallel.h) when cores are available.
//
// ---------------------------------------------------------------------
// Why sharded draws preserve the uniform-pair law (mixing argument)
// ---------------------------------------------------------------------
//
// The global scheduler draws an ordered pair of distinct agents
// uniformly from the n(n-1) possibilities. The sharded scheduler
// instead proceeds in epochs: each of the S shards draws K ordered
// pairs uniformly from its own slice of m ~ n/S agents, and between
// epochs X = (S*K) >> exchange_shift uniformly random cross-shard
// transpositions swap agents between slices. Three observations relate
// the two chains:
//
// 1. Exchangeability lemma. Protocol dynamics depend on the census
//    only: states carry no identity, so the chain's law is a function
//    of per-state counts, never of which array slot holds which state.
//    If, conditional on the global census, the assignment of states to
//    array positions is exchangeable (uniform over arrangements), then
//    the two slots picked by a uniform intra-slice draw are a
//    uniformly random unordered pair of *agents* of the global
//    population -- exactly the law of a global draw. Under
//    exchangeability, restricting the draw to a slice costs nothing.
//
// 2. Per-agent interaction intensity. Every shard performs the same K
//    draws per epoch, and slice sizes differ by at most one, so each
//    agent participates in an epoch's draws with equal probability
//    2K/m +- O(1/m^2) -- the global scheduler's 2/n per draw, scaled
//    by the K draws. The allocation of draws to shards therefore
//    introduces no per-agent bias on top of (1).
//
// 3. What breaks exchangeability, and the restoring force. Initial
//    slices are striped proportionally (each shard receives a
//    floor/ceil share of every state's count), the concentrated value
//    of a uniform arrangement. Within an epoch, a shard's *own*
//    productive draws only write states the shard itself holds, but
//    they correlate slot contents with the slice: after K draws a
//    slice census can drift from its proportional share by O(sqrt(K))
//    states, giving per-draw pair-type bias O(K/m) relative to the
//    global law. The cross-shard exchange re-randomizes slot
//    placement: X uniform transpositions per epoch refresh a constant
//    fraction (X / (S*K) = 2^-exchange_shift) of the slots a shard's
//    draws touch, which caps census drift at the same O(sqrt(K))
//    stationary envelope instead of letting it accumulate across
//    epochs -- random transpositions are the classical mixing dynamics
//    for exchangeability, and any constant rate defeats linear drift.
//    In the regime sharding targets (m >= 10^6, K = 8192) the
//    per-draw bias bound K/m is <= 0.8%, and vanishes as populations
//    grow toward the paper's double-exponential thresholds.
//
// The contract is therefore: *exact* equivalence at S = 1 (no
// exchange, one slice, one below(n) / below(n-1) draw pair per
// interaction -- the chain of a per-draw reference loop, pinned by
// tests/test_scheduler.cpp), and *distributional* equivalence at S > 1
// with an O(K/m) per-draw bias that the equivalence tests bound
// empirically. Determinism: the chain is a function of the seed and
// the shard count alone. Shard s draws from
// util::Xoshiro256::stream(seed, s) and the exchange stream is the
// long_jump'd seed generator, so runs with equal (seed, shards) are
// bit-identical regardless of worker count or OS scheduling -- workers
// only decide *where* a shard's batch executes, never what it
// computes. The tests pin that chain at S > 1 too, against a per-draw
// loop that deals agents one at a time and runs each epoch's exchange
// one swap at a time.
//
// Epoch length. K is derived, not configured: K = clamp(max(m/8, R),
// 64, 8192) for the smallest slice size m and the table's partner-entry
// count R. The barrier below costs O(S*states + R), so K >= R keeps it
// amortised; K <= m/8 (above the floor of 64) bounds the draws a small
// population spends after falling silent mid-epoch; and every slice of
// at least 65,536 agents runs the full K = 8192 that keeps a shard's
// working set resident across the prefetch windows. The shard count is
// clamped to max(1, n/2), so every slice holds at least two agents and
// can draw.
//
// Epoch barrier. An epoch is one util::parallel_for call over S + 1
// indices on at most num_workers() threads: indices 0..S-1 run the
// shards' batches and index S draws the exchange plan. The call's
// return is the barrier. The pool's workers spin for util::kSpinWindow
// between calls before they park, so a busy run crosses every barrier
// without a futex wake-up. The kernel starts no thread of its own, and
// a run inside a pool task (a sweep's run) runs its shards inline.
//
// Exchange plan. An epoch's transpositions depend only on the exchange
// stream and the fixed slice bases and sizes, never on agent states,
// so they are drawn into a flat plan while the shards draw: the caller
// claims index S first, since the pool hands it the top index. The
// barrier then only applies the plan, in order, so the chain is the
// one of drawing and applying each swap in turn. Nobody else reads the
// plan, and the slice placement it is drawn from is read-only, off the
// cache lines the batches write.
//
// Agent slots are 16 bits wide: PairRuleTable caps tables at
// kMaxStates = 4096 states, so a slot fits any state, and the agent
// array costs two bytes per agent.
//
// Silence is detected at epoch barriers from the exact summed census
// (the enabled-ordered-pairs count); between barriers the shards run
// free of any shared state. run(max_steps) stops each shard's batch
// once its productive steps in the epoch reach the remaining budget,
// so one shard stops exactly at the budget and S shards overshoot it
// by less than S*K; a pair floor stops it, too, at the first barrier
// whose enabled-pairs count falls below the floor. Per-shard counters
// (draws, productive, prefetch batches) are plain local increments;
// publish_metrics() reports a one-shard run as sim.agent.* and a
// multi-shard run as sim.shard.*.

#ifndef PPSC_SIM_SHARDED_H
#define PPSC_SIM_SHARDED_H

#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "sim/scheduler.h"
#include "util/rng.h"

namespace ppsc {
namespace sim {

struct ShardedOptions {
  // What shards = 0 resolves to: chosen so 10^7-agent slices drop
  // under typical L2/L3 shares (see docs/sim-sharding.md).
  static constexpr std::size_t kDefaultShards = 8;

  // Number of agent slices; 0 = kDefaultShards. Clamped to
  // max(1, population / 2). 1 disables exchange and is the classical
  // uniform random-pair scheduler.
  std::size_t shards = 0;
  // Threads an epoch may run on (its util::parallel_for max_threads),
  // capped at the shard count and the pool's width; 0 = the pool's
  // width. 1 runs everything inline on the calling thread. The result
  // never depends on this value.
  unsigned workers = 0;
  // Cross-shard transpositions per epoch = (shards * K) >> shift; the
  // default refreshes one slot per eight draw-touched slots --
  // measured as the knee where weaker exchange stops buying throughput.
  // Each swap costs four RNG draws, overlapped with the epoch's draws,
  // and two far-cache accesses in the serial apply at the barrier; the
  // plan takes 24 bytes per swap.
  unsigned exchange_shift = 3;
};

class ShardedSimulator {
 public:
  // The table must outlive the simulator. `initial` is a configuration
  // over the protocol's states. std::invalid_argument if a count is
  // negative or the population passes PairRuleTable::kMaxPopulation,
  // past which enabled_pairs() would overflow.
  ShardedSimulator(const PairRuleTable& table, const core::Config& initial,
                   std::uint64_t seed, ShardedOptions options = {});

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  // Runs one epoch (K draws per shard, then the cross-shard exchange
  // and the census/silence refresh). Returns true iff the
  // configuration is not silent afterwards; a silent configuration
  // draws nothing, and neither does a population below 2.
  bool epoch() { return run_epoch(kUnbounded); }

  // Epochs until silent or steps() >= max_steps; returns steps(). Each
  // shard stops its batch once its productive steps in the epoch reach
  // the remaining budget, so one shard stops exactly at max_steps and
  // S shards overshoot it by less than S * epoch_length(). A nonzero
  // `pair_floor` also stops the run at the first barrier (construction
  // included) with fewer than `pair_floor` enabled ordered pairs: the
  // point where kAuto hands a run to the census sampler
  // (sim/parallel.h).
  std::uint64_t run(std::uint64_t max_steps, long long pair_floor = 0);

  bool silent() const { return enabled_pairs_ == 0; }
  // Productive interactions so far (summed at the last barrier).
  std::uint64_t steps() const { return steps_; }
  // Raw intra-shard draws so far, null interactions included.
  std::uint64_t interactions() const { return interactions_; }
  std::uint64_t epochs() const { return epochs_; }
  // Intra-shard draws per shard per full epoch (K in the mixing
  // argument), derived from the slice size and the table.
  std::uint64_t epoch_length() const { return epoch_length_; }
  std::uint64_t cross_swaps() const { return cross_swaps_; }

  const core::Config& census() const { return counts_; }
  core::Count population() const {
    return static_cast<core::Count>(agents_.size());
  }
  // Number of enabled ordered agent pairs; 0 iff silent. Exact at
  // every epoch barrier.
  long long enabled_pairs() const { return enabled_pairs_; }

  std::size_t num_shards() const { return shards_.size(); }
  // The options' workers resolved and capped at the shard count and
  // the pool's width: the most threads an epoch runs on. A busy pool
  // or a call from inside a pool task runs it on fewer
  // (util/parallel.h).
  unsigned num_workers() const { return workers_; }

  // Adds this run's totals to the global registry -- sim.agent.* for
  // one shard, sim.shard.* for more; call once, after the run. No-op
  // while the registry is disabled.
  void publish_metrics() const;

 private:
  // One agent's state; see "Agent slots" above.
  using Slot = std::uint16_t;
  static_assert(PairRuleTable::kMaxStates - 1 <= 0xffff,
                "every table state must fit an agent slot");

  // A shard's mutable state, written by whichever thread runs its
  // batch; each on its own cache lines.
  struct alignas(64) Shard {
    util::Xoshiro256 rng{0};
    core::Config counts;
    std::uint64_t draws = 0;
    std::uint64_t productive = 0;
    std::uint64_t batches = 0;
  };

  // Shard s's slice of the agent array, fixed at construction and
  // read-only afterwards, kept apart from the Shard records so the plan
  // draws never read a line a batch writes.
  struct Slice {
    Slot* base;
    std::uint64_t size;
  };

  // One planned transposition: slot a of shard s with slot b of shard t.
  struct Swap {
    Slot* a;
    Slot* b;
    std::uint32_t s;
    std::uint32_t t;
  };

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  // One epoch in which each shard fires at most `budget` productive
  // steps; returns true iff not silent afterwards.
  bool run_epoch(std::uint64_t budget);
  void run_shard_batch(std::size_t s);
  // Draws the epoch's X uniform cross-shard transpositions into plan_
  // from exchange_rng_; reads no agent slot, so it runs while the
  // shards draw.
  void draw_plan();
  // Applies plan_ in order (serial, at the barrier).
  void apply_plan();
  // Re-derives counts_, enabled_pairs_ and the run totals from the
  // shards; serial, at every epoch barrier.
  void refresh_global();

  const PairRuleTable* table_;
  std::vector<Slot> agents_;
  std::vector<Shard> shards_;
  std::vector<Slice> slices_;
  // The current epoch's transpositions; empty at S = 1.
  std::vector<Swap> plan_;
  util::Xoshiro256 exchange_rng_;
  std::uint64_t epoch_length_ = 0;
  // Productive steps each shard may still fire in the current epoch;
  // written before the epoch's parallel_for.
  std::uint64_t epoch_budget_ = kUnbounded;
  unsigned exchange_shift_;
  unsigned workers_ = 1;

  core::Config counts_;
  long long enabled_pairs_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t interactions_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_swaps_ = 0;
  std::uint64_t prefetch_batches_ = 0;
};

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_SHARDED_H
