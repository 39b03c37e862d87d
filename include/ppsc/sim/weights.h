// The instantiation-weight law shared by the census sampler and the
// exact expected-time solver: a transition's weight is the number of
// distinct agent sets firing it, the product over its pre arcs of
// C(available, need). Keeping the law here gives it a single
// definition, so the sampler and the solver cannot silently diverge --
// the e18 exact-vs-sampled agreement depends on them computing the
// very same chain.

#ifndef PPSC_SIM_WEIGHTS_H
#define PPSC_SIM_WEIGHTS_H

#include <algorithm>
#include <type_traits>

#include "core/protocol.h"
#include "petri/petri_net.h"
#include "util/span.h"

namespace ppsc {
namespace sim {

// C(available, need). Integral T is exact (the census sampler's
// weights) as long as the result fits in T, which the sampler's weight
// bound guarantees: the running product C(available, k + 1) =
// C(available, k) (available - k) / (k + 1), k < min(need, available -
// need), never passes the result, and each numerator fits in 128
// bits. Floating T runs the same product in T over k < need (the
// solver instantiates long double).
template <typename T>
T binomial_instances(core::Count available, core::Count need) {
  if (available < need) return T(0);
  if constexpr (std::is_integral_v<T>) {
    // The needs of width-1 and width-2 arcs, without a 128-bit division.
    if (need == 1) return static_cast<T>(available);
    if (need == 2) {
      return static_cast<T>(static_cast<unsigned __int128>(available) *
                                static_cast<unsigned __int128>(available - 1) >>
                            1);
    }
    const core::Count steps = std::min(need, available - need);
    unsigned __int128 weight = 1;
    for (core::Count k = 0; k < steps; ++k) {
      weight = weight * static_cast<unsigned __int128>(available - k) /
               static_cast<unsigned __int128>(k + 1);
    }
    return static_cast<T>(weight);
  } else {
    T weight(1);
    for (core::Count k = 0; k < need; ++k) {
      weight *= static_cast<T>(available - k) / static_cast<T>(k + 1);
    }
    return weight;
  }
}

// Twice the weight of a width-2 pre {a, b} in a census with c_a agents
// in a and c_b in b: 2 C(c_a, 2) = c_a (c_a - 1) when a == b, else
// 2 c_a c_b -- the ordered agent pairs that fire it, the census
// sampler's pair-net weight.
inline long long ordered_pair_weight(core::Count ca, core::Count cb,
                                     bool same) {
  return same ? ca * (ca - 1) : 2 * ca * cb;
}

// The weight of a transition with sparse pre list `pre` in the census
// `counts`: the product of binomial_instances over its arcs.
template <typename T, typename Counts>
T instance_weight(util::Span<petri::Arc> pre, const Counts& counts) {
  T weight(1);
  for (const petri::Arc& arc : pre) {
    const T factor = binomial_instances<T>(counts[arc.place], arc.count);
    if (factor == T(0)) return T(0);
    weight *= factor;
  }
  return weight;
}

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_WEIGHTS_H
