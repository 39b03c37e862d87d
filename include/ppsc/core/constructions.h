// The paper's protocol constructions for the counting predicate (i >= n)
// and the classical comparison families the benches measure against.
//
// Section 4 of the paper argues that state count alone is meaningless:
// Example 4.1 decides (i >= n) with 2 states by paying interaction-width
// n, Example 4.2 with 6 states and width 2 by paying n leaders. The
// leaderless width-2 families (unary, binary, belief) pay states instead,
// and Corollary 4.4 says no bounded-width bounded-leader family can do
// asymptotically better than (log log n)^h states.

#ifndef PPSC_CORE_CONSTRUCTIONS_H
#define PPSC_CORE_CONSTRUCTIONS_H

#include <vector>

#include "core/protocol.h"

namespace ppsc {
namespace core {

// Example 4.1: 2 states {A, B}, n transitions, interaction-width n,
// leaderless. t_n fires n input agents simultaneously into B; t_k
// (k < n) lets one B recruit k more A's. Stably computes (i >= n).
ConstructedProtocol example_4_1(Count n);

// Example 4.2: 6 states, width 2, n leaders. Each hungry leader H eats
// one input X (H + X -> F + C0); a hungry leader vetoes fed leaders
// (H + F -> H + F0) and consumed inputs (H + C1 -> H + C0), while fed
// leaders campaign back (F + F0 -> F + F, F + C0 -> F + C1). All n
// leaders get fed iff i >= n. Stably computes (i >= n).
ConstructedProtocol example_4_2(Count n);

// Leaderless width-2 baseline with Theta(n) states: agents aggregate
// unary counts capped at n and carry a sticky witness bit that is set
// exactly when some interaction accumulates n. Stably computes (i >= n).
ConstructedProtocol unary_counting(Count n);

// unary_counting with inputs funnelled through a transient "fresh"
// state that a width-1 decay rule tears down. Same predicate (i >= n)
// and the same merge dynamics, but the width-1 rule defeats the
// pairwise rule-table compilation (sim::PairRuleTable::build returns
// null), so it runs on the census sampler's count role -- the e15
// ablation uses it to exercise exactly that role.
ConstructedProtocol destructive_unary_counting(Count n);

// Leaderless width-2 family with log2(n) + 2 states for n a power of
// two: agents hold powers of two, equal values merge upward, and any
// pair summing to >= n converts to the spreading top state. Stably
// computes (i >= n). Throws unless n is a power of two and n >= 2.
ConstructedProtocol binary_counting(Count n);

// Leaderless width-2 family with exactly n states: the "belief level"
// ruler protocol. Two agents at level l < n-1 push one of them to l+1;
// level n-1 is reachable iff the population has at least n agents and
// then spreads. Stably computes (i >= n).
ConstructedProtocol threshold_belief(Count n);

// Modulo predicate (i mod m == r), m >= 2, 0 <= r < m: actives merge
// their residues mod m, the surviving active broadcasts the verdict to
// passive agents. m + 2 states, width 2, leaderless.
ConstructedProtocol modulo_counting(Count m, Count r);

// Weighted threshold over a |weights|-dimensional input: stably computes
// (sum_i weights[i] * x[i] >= threshold). Agents carry partial sums
// capped at `threshold`; a pair whose values reach the threshold turns
// into the sticky accepting state, which then spreads. threshold + 1
// states, width 2, leaderless. Throws on empty weights, a negative
// weight, or threshold < 1.
ConstructedProtocol weighted_threshold(const std::vector<Count>& weights,
                                       Count threshold);

// Exact majority over a two-dimensional input (a, b): the classical
// 4-state protocol with the tie rule a + b -> b + b, so ties decide 0.
// Stably computes (a > b).
ConstructedProtocol majority();

// The families E1 measures for a given threshold n: unary, belief,
// Example 4.1, Example 4.2, and (when n is a power of two) binary.
std::vector<ConstructedProtocol> counting_families(Count n);

// The predicate (i >= n) over a 1-dimensional input, shared by the
// counting constructions above.
Predicate counting_predicate(Count n);

}  // namespace core
}  // namespace ppsc

#endif  // PPSC_CORE_CONSTRUCTIONS_H
