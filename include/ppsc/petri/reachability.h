// Bounded forward exploration: the reachability graph of a net from a
// set of root markings, cut off at a node budget.
//
// For conservative nets the graph is finite and `truncated` stays
// false, making the result an exact reachability graph (the object the
// Section 2 verifier and the Theorem 6.1 witness search both consume).
// For pumping nets exploration hits the budget and the caller must fall
// back to omega-based reasoning (karp_miller.h).

#ifndef PPSC_PETRI_REACHABILITY_H
#define PPSC_PETRI_REACHABILITY_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "petri/petri_net.h"

namespace ppsc {
namespace petri {

struct ExploreLimits {
  // Stop exploring (marking the result truncated) once this many
  // distinct configurations have been discovered.
  std::size_t max_nodes = 1u << 20;
};

struct ReachEdge {
  std::size_t target;
  std::size_t transition;
};

// Per-call exploration statistics, filled by every explore() run and
// carried on the result so consumers (e13/e19, the obs registry, the
// verifier) stop re-deriving them ad hoc. `probes` counts hash-table
// lookups (one per enabled transition firing plus one per root);
// `collisions` counts how many already-interned configurations shared
// a hash bucket with a newly inserted one, and is only collected while
// the obs registry is runtime-enabled (the bucket scan re-hashes the
// config, which the hot path should not pay for by default).
// `enabled_checks` counts the candidate transitions the net's
// enabledness index tested against a configuration (a dense scan would
// test configs x transitions); its excess over `edges` is the wasted
// work.
struct ExploreStats {
  std::size_t configs = 0;           // distinct configurations interned
  std::size_t edges = 0;             // reachability edges recorded
  std::size_t frontier_peak = 0;     // BFS frontier high-water mark
  std::uint64_t probes = 0;          // hash-map lookups
  std::uint64_t collisions = 0;      // bucket neighbours at insertion
  std::uint64_t enabled_checks = 0;  // candidates tested for enabledness
  bool truncated = false;            // == ReachabilityGraph::truncated
};

struct ReachabilityGraph {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::vector<Config> nodes;  // nodes[0..roots-1] are the roots, BFS order
  std::vector<std::vector<ReachEdge>> edges;
  // BFS tree for path extraction; kNoParent on roots.
  std::vector<std::size_t> parent;
  std::vector<std::size_t> parent_transition;
  bool truncated = false;
  // Set when a `stop` predicate matched: index of the first matching
  // node in BFS discovery order (so word_to(*stopped) is a shortest
  // witness word). Exploration ceases at that point.
  std::optional<std::size_t> stopped;
  ExploreStats stats;

  // Transition word from this node's root to the node, via the BFS tree.
  std::vector<std::size_t> word_to(std::size_t node) const;
};

// Breadth-first exploration from `roots`. When `stop` is provided it is
// evaluated on every discovered configuration (roots included);
// exploration halts at the first match, recorded in `stopped`. The
// coverability and bottom-witness engines use this early exit for their
// shortest-word searches.
//
// Successors are emitted in ascending transition index: each node's
// enabled transitions come from the enabledness index compiled into
// the net (PetriNet::enabled_transitions, see petri_net.h), which tests
// only the transitions whose lowest pre place is occupied, and are
// fired over the sparse delta lists. Node ids, edge order, BFS parents
// and `stopped` are therefore exactly those of a dense scan over every
// transition in index order.
ReachabilityGraph explore(const PetriNet& net, const std::vector<Config>& roots,
                          const ExploreLimits& limits = {},
                          const std::function<bool(const Config&)>& stop = {});

// Replays a transition word; std::nullopt as soon as a step is disabled.
std::optional<Config> fire_word(const PetriNet& net, Config from,
                                const std::vector<std::size_t>& word);

// Tarjan SCC decomposition of a reachability graph.
struct SccDecomposition {
  std::vector<std::size_t> component;  // node -> SCC id
  std::size_t count = 0;
  // bottom[s]: no edge leaves SCC s (only meaningful on untruncated
  // graphs -- a truncated graph may hide outgoing edges).
  std::vector<bool> bottom;
};

SccDecomposition scc_decompose(const ReachabilityGraph& graph);

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_REACHABILITY_H
