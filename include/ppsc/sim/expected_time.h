// Exact expected interaction counts via the absorbing-Markov-chain
// linear system over the protocol's reachability graph.
//
// The productive-step chain of both schedulers (sim/scheduler.h) jumps
// from configuration c to c' = fire(t, c) with probability
// weight(t, c) / W(c), where weight is the instantiation count and
// W(c) the total over enabled transitions. Silent configurations are
// absorbing, so the expected number of productive interactions to
// silence satisfies E[c] = 0 on silent c and
//   E[c] = 1 + sum_t (weight(t, c) / W(c)) * E[fire(t, c)]
// otherwise. The system is solved per SCC of petri::explore's
// reachability graph in reverse-topological order -- most protocol
// chains are progress-measured DAGs with small cyclic pockets, so the
// dense Gaussian elimination only ever sees the pockets. A one-node
// SCC is solved in closed form, E = (1 + sum_{j != i} p_ij E_j) /
// (1 - p_ii), with the elimination's own sums, singularity test and
// division for a 1x1 block, so its E and the pivot count are the ones
// the elimination would give.
//
// Numerics: long-double Gaussian elimination with partial pivoting;
// a pivot below 1e-12 of the column scale marks the system singular
// and leaves the result uncomputed. That does not mean silence is
// unreachable: E may still be finite. Stiff chains whose E passes
// ~1e12 have true pivots that small -- Example 4.2 at x = n - 1 for
// n = 20..32 reaches silence with probability 1 yet is reported
// uncomputed (see the open item in ROADMAP.md on an exact
// expected-time oracle that survives stiff chains). When the result
// is computed, for the graph sizes this is meant for (<= a few
// thousand configurations) the relative error is far below the ~1e-9
// the benches print.

#ifndef PPSC_SIM_EXPECTED_TIME_H
#define PPSC_SIM_EXPECTED_TIME_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "petri/config.h"
#include "petri/petri_net.h"

namespace ppsc {
namespace sim {

struct ExpectedTimeResult {
  // True iff expected_steps is exact. False when the state space was
  // truncated at max_configs, a dense SCC block exceeded the solver
  // cap, or a pivot fell below 1e-12 -- which leaves E uncomputed,
  // not proven infinite (see the numerics note above).
  bool computed = false;
  // The exploration hit the max_configs budget.
  bool truncated = false;
  // Distinct configurations discovered (exact when not truncated).
  std::size_t reachable_configs = 0;
  // SCC structure of the chain: how many components the reverse-
  // topological sweep visited, and the largest dense block the
  // Gaussian elimination had to solve (1 for pure DAG chains).
  std::size_t sccs = 0;
  std::size_t largest_scc = 0;
  // Pivot rows eliminated across all per-SCC solves -- the cubic-cost
  // driver of the exact method.
  std::uint64_t pivots = 0;
  // E[productive interactions to silence] from the initial
  // configuration; 0 when not computed.
  double expected_steps = 0.0;
};

// Exact E[steps to silence] for the protocol started on `input`,
// exploring at most `max_configs` configurations.
ExpectedTimeResult expected_interactions_to_silence(
    const core::Protocol& protocol, const std::vector<core::Count>& input,
    std::size_t max_configs = 200000);

// The same on any net from `initial`; the form above reads
// protocol.net() and protocol.initial_config(input). Unlike a
// protocol's, a bare net may hold identity transitions, whose edges
// are self-loops of the chain.
ExpectedTimeResult expected_interactions_to_silence(
    const petri::PetriNet& net, const petri::Config& initial,
    std::size_t max_configs = 200000);

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_EXPECTED_TIME_H
