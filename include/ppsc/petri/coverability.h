// Coverability: can some reachable marking dominate the target?
//
// Two engines, matching the two sides of Lemma 5.3:
//
//  * backward_basis / coverable -- the classical backward algorithm on
//    upward-closed sets. An upward-closed set U is represented by its
//    (finite, by Dickson's lemma) minimal basis B: U = {x : exists b in
//    B, x >= b}. Starting from the upward closure of the target, the
//    predecessor basis under transition t maps b to
//    max(pre_t, b - (post_t - pre_t)) componentwise; elements dominated
//    by another basis element are pruned, which is what guarantees
//    termination. The target is coverable from `source` iff the fixpoint
//    basis contains an element <= source.
//
//  * shortest_covering_word -- exact shortest covering sequences by
//    forward breadth-first search, the quantity Lemma 5.3's Rackoff
//    bound (bounds::log2_rackoff_bound) caps. The search is cut off at
//    `max_nodes` distinct markings; a missing word with `truncated` set
//    means "not found within the budget", not "uncoverable".

#ifndef PPSC_PETRI_COVERABILITY_H
#define PPSC_PETRI_COVERABILITY_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "petri/petri_net.h"
#include "petri/reachability.h"

namespace ppsc {
namespace petri {

// Per-call statistics of the backward fixpoint. Each alive marking m
// steps only the transitions that put tokens on supp(m); any other
// transition's predecessor is >= m and so already dominated, and is
// counted in `skipped` without being built. Each domination test
// x >= y is prefiltered by 64-bit support signatures (bit p % 64 set
// iff a place of that residue is nonzero; x >= y needs
// sig(y) & ~sig(x) == 0), so `comparisons` -- one per covers() call
// actually made -- counts only the pairs the signatures cannot rule
// out, far below `predecessors` * `basis_peak`.
struct BackwardBasisStats {
  std::size_t basis_final = 0;        // minimal basis size at fixpoint
  std::size_t basis_peak = 0;         // largest intermediate basis
  std::uint64_t basis_size_sum = 0;   // basis size summed per iteration
  std::uint64_t iterations = 0;       // work-queue items processed
  std::uint64_t predecessors = 0;     // candidate predecessors generated
  std::uint64_t skipped = 0;          // steps skipped as dominated upfront
  std::uint64_t pruned_dominated = 0; // candidates dropped as dominated
  std::uint64_t evictions = 0;        // basis elements a candidate evicted
  std::uint64_t comparisons = 0;      // covers() calls past the signatures
};

// Minimal basis of the set of markings from which `target` (a marking:
// no negative count, else std::invalid_argument) is coverable.
// `max_basis` is a safety valve (std::runtime_error beyond it); the
// algorithm itself always terminates. `stats`, when non-null, receives
// the per-call fixpoint statistics.
std::vector<Config> backward_basis(const PetriNet& net, const Config& target,
                                   std::size_t max_basis = 1u << 22,
                                   BackwardBasisStats* stats = nullptr);

// True iff some marking >= target is reachable from `source`.
bool coverable(const PetriNet& net, const Config& source, const Config& target,
               std::size_t max_basis = 1u << 22);

struct CoveringWordResult {
  // Shortest transition word sigma with source --sigma--> m >= target.
  std::optional<std::vector<std::size_t>> word;
  // Statistics of the underlying forward exploration (stats.configs
  // markings explored; stats.truncated when the budget cut it short).
  ExploreStats stats;
};

CoveringWordResult shortest_covering_word(const PetriNet& net,
                                          const Config& source,
                                          const Config& target,
                                          std::size_t max_nodes);

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_COVERABILITY_H
