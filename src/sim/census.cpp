#include "sim/census.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "sim/weights.h"

namespace ppsc {
namespace sim {

// kMaxPopulation is exactly the largest n with n(n-1) <= LLONG_MAX.
static_assert(CensusSimulator::kMaxPopulation - 1 <=
              LLONG_MAX / CensusSimulator::kMaxPopulation);
static_assert(CensusSimulator::kMaxPopulation >
              LLONG_MAX / (CensusSimulator::kMaxPopulation + 1));

namespace {

using Wide = unsigned __int128;
// Every weight bound at or above this is rejected alike.
constexpr Wide kSaturated = Wide{1} << 64;

// C(n, w), saturated at kSaturated. The running product over
// k < min(w, n - w) only grows, so once it saturates so does C(n, w).
Wide saturated_binomial(core::Count n, core::Count w) {
  if (w > n) return 0;
  Wide c = 1;
  for (core::Count k = 0; k < std::min(w, n - w) && c < kSaturated; ++k) {
    c = c * static_cast<Wide>(n - k) / static_cast<Wide>(k + 1);
  }
  return std::min(c, kSaturated);
}

// The pre-multiset order of the entries: lexicographic over the arc
// lists, places ascending, and on one place the larger count first.
bool pre_before(util::Span<petri::Arc> x, util::Span<petri::Arc> y) {
  return std::lexicographical_compare(
      x.begin(), x.end(), y.begin(), y.end(),
      [](const petri::Arc& a, const petri::Arc& b) {
        return a.place != b.place ? a.place < b.place : a.count > b.count;
      });
}

}  // namespace

CensusSimulator::CensusSimulator(const petri::PetriNet& net,
                                 const core::Config& initial,
                                 util::Xoshiro256 rng)
    : rng_(rng), net_(&net), counts_(initial) {
  if (initial.size() != net.num_states()) {
    throw std::invalid_argument(
        "CensusSimulator: configuration dimension does not match the net");
  }
  for (const core::Count c : initial) {
    if (c < 0 || c > LLONG_MAX - population_) {
      throw std::invalid_argument(
          "CensusSimulator: negative or overflowing count");
    }
    population_ += c;
  }

  std::vector<std::uint32_t> order(net.num_transitions());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&net](std::uint32_t s, std::uint32_t t) {
                     return pre_before(net.pre(s), net.pre(t));
                   });
  // One entry per transition in pre-multiset order. `run` counts the
  // transitions sharing the current pre multiset; multiplicity[w] is
  // the longest such run of width w.
  std::vector<core::Count> multiplicity;
  core::Count run = 0;
  bool pair_net = !order.empty();
  dependents_.assign(net.num_states(), {});
  for (std::uint32_t e = 0; e < order.size(); ++e) {
    const std::uint32_t t = order[e];
    const util::Span<petri::Arc> pre = net.pre(t);
    const std::size_t width = static_cast<std::size_t>(net.width(t));
    core::Count moved = 0;
    for (const petri::Arc& arc : net.delta(t)) moved += arc.count;
    if (width == 0 || moved != 0) {
      throw std::invalid_argument(
          "CensusSimulator: a transition consumes nothing or is not "
          "conservative");
    }
    const util::Span<petri::Arc> last = net.pre(order[e == 0 ? 0 : e - 1]);
    const bool repeat =
        e > 0 && std::equal(pre.begin(), pre.end(), last.begin(), last.end());
    run = repeat ? run + 1 : 1;
    pair_net = pair_net && width == 2 && !repeat;
    if (multiplicity.size() <= width) multiplicity.resize(width + 1, 0);
    multiplicity[width] = std::max(multiplicity[width], run);
    if (e == 0 || pre[0].place != last[0].place) rows_.push_back({0, e});
    entries_.push_back({t, static_cast<std::uint32_t>(pre[0].place),
                        static_cast<std::uint32_t>(pre[pre.size() - 1].place),
                        static_cast<std::uint32_t>(rows_.size() - 1),
                        static_cast<std::uint32_t>(width)});
    for (const petri::Arc& arc : pre) dependents_[arc.place].push_back(e);
  }
  pair_net_ = pair_net;

  // Pair nets count ordered pairs: twice the instantiation weights.
  const Wide scale = pair_net ? 2 : 1;
  Wide bound = 0;
  for (std::size_t w = 0; w < multiplicity.size(); ++w) {
    bound += scale * static_cast<Wide>(multiplicity[w]) *
             saturated_binomial(population_, static_cast<core::Count>(w));
    bound = std::min(bound, kSaturated);
  }
  if (bound > static_cast<Wide>(LLONG_MAX)) {
    throw std::invalid_argument(
        "CensusSimulator: weights of this population can overflow 64 bits");
  }
  if (pair_net) ordered_pairs_ = population_ * (population_ - 1);

  weights_.resize(entries_.size());
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    weights_[e] =
        pair_net ? weight<true>(entries_[e]) : weight<false>(entries_[e]);
    rows_[entries_[e].row].sum += weights_[e];
    total_ += weights_[e];
  }
}

template <bool kPairNet>
long long CensusSimulator::weight(const Entry& entry) const {
  const core::Count ca = counts_[entry.a];
  if (kPairNet) {
    return ordered_pair_weight(ca, counts_[entry.b], entry.a == entry.b);
  }
  // Widths 1 and 2 without the arc list: C(c_a, width) on one place,
  // c_a c_b on two.
  if (entry.width <= 2) {
    return entry.a == entry.b ? binomial_instances<long long>(ca, entry.width)
                              : ca * counts_[entry.b];
  }
  return instance_weight<long long>(net_->pre(entry.transition), counts_);
}

template <bool kPairNet>
void CensusSimulator::fire(const Entry& fired) {
  const util::Span<petri::Arc> delta = net_->delta(fired.transition);
  for (const petri::Arc& arc : delta) counts_[arc.place] += arc.count;
  // Only entries whose pre touches a changed place can change weight.
  // An entry touching two such places is visited twice; the second
  // visit finds its weight already current.
  for (const petri::Arc& arc : delta) {
    for (const std::uint32_t e : dependents_[arc.place]) {
      const long long updated = weight<kPairNet>(entries_[e]);
      if (updated != weights_[e]) {
        total_ += updated - weights_[e];
        rows_[entries_[e].row].sum += updated - weights_[e];
        weights_[e] = updated;
        ++weight_updates_;
      }
    }
  }
}

std::uint32_t CensusSimulator::find_entry(long long r) const {
  // The smallest entry whose weight prefix sum exceeds r: skip whole
  // rows while r reaches past their sum, then entries of the row it
  // lands in. A zero-weight row or entry never ends either scan.
  const Row* row = rows_.data();
  while (r >= row->sum) {
    r -= row->sum;
    ++row;
  }
  std::uint32_t entry = row->begin;
  while (r >= weights_[entry]) {
    r -= weights_[entry];
    ++entry;
  }
  return entry;
}

bool CensusSimulator::step() {
  if (total_ == 0) return false;
  // Null draws before the next productive one are geometric with
  // success probability p = W / (n(n-1)); the constructor's bound
  // keeps n(n-1) exact in 64 bits. Off pair nets ordered_pairs_ is 0
  // and no draw is null.
  if (total_ < ordered_pairs_) {
    const double p =
        static_cast<double>(total_) / static_cast<double>(ordered_pairs_);
    const double u = rng_.unit();
    const double skipped = std::floor(std::log1p(-u) / std::log1p(-p));
    // The cast bound keeps a p ~ 1e-18 tail draw from overflowing.
    const std::uint64_t nulls =
        skipped >= 0x1.0p62 ? (1ull << 62) : static_cast<std::uint64_t>(skipped);
    interactions_ += nulls;
    null_skipped_ += nulls;
  }
  ++interactions_;

  const Entry& fired = entries_[find_entry(static_cast<long long>(
      rng_.below(static_cast<std::uint64_t>(total_))))];
  if (pairwise()) {
    fire<true>(fired);
  } else {
    fire<false>(fired);
  }
  ++steps_;
  return true;
}

void CensusSimulator::publish_metrics() const {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (!registry.enabled()) return;
  registry.add("sim.census.runs", 1);
  registry.add("sim.census.productive", steps_);
  registry.add("sim.census.null_skipped", null_skipped_);
  registry.add("sim.census.weight_updates", weight_updates_);
}

}  // namespace sim
}  // namespace ppsc
