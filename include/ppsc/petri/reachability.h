// Bounded forward exploration: the reachability graph of a net from a
// set of root markings, cut off at a node budget.
//
// For conservative nets the graph is finite and `truncated` stays
// false, making the result an exact reachability graph (the object the
// Section 2 verifier and the Theorem 6.1 witness search both consume).
// For pumping nets exploration hits the budget and the caller must fall
// back to omega-based reasoning (karp_miller.h).
//
// Storage is flat, with no per-node allocation:
//
//  * Arena. Node i's d counts (d = net.num_states()) are
//    counts[i*d, (i+1)*d) of one vector; node(i) views them in place
//    and config(i) copies them out. hashes[i] is ConfigHash::of(node i).
//  * Intern table. explore() deduplicates through an open-addressing
//    table of 32-bit node ids (power-of-two size, linear probing, grown
//    at half load). A slot also keeps the high half of its node's hash,
//    so a probe compares that first and memcmp()s the d counts only on
//    a match. `collisions` counts the occupied slots an insertion
//    probed past before reaching its empty slot.
//  * Incremental hash. ConfigHash is a position-salted sum (config.h),
//    so a successor's hash is its parent's plus the change of the terms
//    on the fired transition's sparse delta arcs -- a few terms,
//    however wide the net. Successors are built in place in one scratch
//    buffer (delta applied, looked up, delta reverted).
//  * CSR edges. BFS expands node after node and appends each node's
//    out-edges contiguously, so node u's edges are
//    edges[edge_begin[u], edge_begin[u+1]) (out_edges(u)); nodes that
//    were never expanded (after a stop) have empty ranges.
//
// Frontier batches. A frontier of 512 heads or more is expanded 512
// heads at a time in two phases:
//
//  * Resolve, on util::parallel_for, 16 heads per index: each head's
//    enabled transitions, and each successor looked up read-only in
//    the intern table as it stood at the batch start. A task writes
//    its heads' edges back to back into its own edge buffer, which
//    the caller creates (16 edges per head) and keeps from batch to
//    batch. The task grows it to max(2 x size, needed) when the next
//    head does not fit and never shrinks it, so it is bounded by the
//    net's transitions, not the graph, and no head is resolved twice.
//  * Commit, on the calling thread, head by head and edge by edge in
//    BFS order: a successor the resolve found is that node; any other
//    is probed and interned exactly as a head-by-head BFS would (an
//    earlier head of the batch may have interned it since). `stop` is
//    called here only, so a stop or a max_nodes cut mid-batch drops
//    the resolved heads after it.
//
// Where a parallel_for would run inline (inside a pool task, in a
// one-thread pool: util::runs_inline()) or the frontier is smaller,
// a batch is one head, resolved on the caller into the first task's
// buffer with no lookup. Node ids, edges, parents, `stopped`,
// `truncated`, every ExploreStats field, the explore.* counters and
// the explore.chunk spans are therefore the same for any thread count.

#ifndef PPSC_PETRI_REACHABILITY_H
#define PPSC_PETRI_REACHABILITY_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "petri/config.h"
#include "petri/petri_net.h"
#include "util/span.h"

namespace ppsc {
namespace petri {

struct ExploreLimits {
  // Stop exploring (marking the result truncated) once this many
  // distinct configurations have been discovered.
  std::size_t max_nodes = 1u << 20;
};

// 32-bit fields: node ids are 32-bit anyway (see explore), and the
// edge list is the graph's largest array.
struct ReachEdge {
  std::uint32_t target;
  std::uint32_t transition;
};

// Per-call exploration statistics, filled by every explore() run and
// carried on the result so consumers (e13/e19, the obs registry, the
// verifier) stop re-deriving them ad hoc. `probes` counts intern-table
// lookups (one per enabled transition firing plus one per root; a
// batch's resolve-time lookup stands in for its edge's probe, never
// adds one);
// `collisions` counts the occupied slots probed past by insertions
// (a lookup that finds its config does not count), so it measures the
// table's clustering and moves with the hash and the table size.
// `enabled_checks` counts the candidate transitions the net's
// enabledness index tested against a configuration (a dense scan would
// test configs x transitions); its excess over `edges` is the wasted
// work.
struct ExploreStats {
  std::size_t configs = 0;           // distinct configurations interned
  std::size_t edges = 0;             // reachability edges recorded
  std::size_t frontier_peak = 0;     // BFS frontier high-water mark
  std::uint64_t probes = 0;          // intern-table lookups
  std::uint64_t collisions = 0;      // occupied slots probed at insertion
  std::uint64_t enabled_checks = 0;  // candidates tested for enabledness
  bool truncated = false;            // == ReachabilityGraph::truncated
};

// "<configs> configs, frontier peak <n>, <x> transitions tested per
// config": the account a capped caller (the verifier's truncation
// errors) gives of the exploration it gave up on.
std::string describe(const ExploreStats& stats);

struct ReachabilityGraph {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  // Layout: see the file comment. Nodes 0..roots-1 are the (distinct)
  // roots; the rest follow in BFS discovery order.
  std::size_t dimension = 0;
  std::vector<Count> counts;            // size() * dimension
  std::vector<std::uint64_t> hashes;    // ConfigHash::of(node(i))
  std::vector<std::size_t> edge_begin;  // size() + 1 offsets into edges
  std::vector<ReachEdge> edges;
  // BFS tree for path extraction; kNoParent on roots.
  std::vector<std::size_t> parent;
  std::vector<std::size_t> parent_transition;
  bool truncated = false;
  // Set when a `stop` predicate matched: index of the first matching
  // node in BFS discovery order (so word_to(*stopped) is a shortest
  // witness word). Exploration ceases at that point.
  std::optional<std::size_t> stopped;
  ExploreStats stats;

  std::size_t size() const { return hashes.size(); }
  ConfigView node(std::size_t i) const {
    return {counts.data() + i * dimension, dimension};
  }
  Config config(std::size_t i) const {
    const ConfigView view = node(i);
    return Config(std::vector<Count>(view.begin(), view.end()));
  }
  util::Span<ReachEdge> out_edges(std::size_t u) const {
    return {edges.data() + edge_begin[u], edges.data() + edge_begin[u + 1]};
  }

  // Transition word from this node's root to the node, via the BFS tree.
  std::vector<std::size_t> word_to(std::size_t node) const;
};

// Breadth-first exploration from `roots`. When `stop` is provided it is
// evaluated on (a view of) every discovered configuration, roots
// included, on the calling thread; exploration halts at the first
// match, recorded in `stopped`. The coverability and bottom-witness
// engines use this early exit for their shortest-word searches.
//
// Successors are emitted in ascending transition index: each node's
// enabled transitions come from the enabledness index compiled into
// the net (PetriNet::enabled_transitions, see petri_net.h), which tests
// only the transitions whose lowest pre place is occupied, and are
// fired over the sparse delta lists. Node ids, edge order, BFS parents
// and `stopped` are therefore exactly those of a dense scan over every
// transition in index order.
//
// Node ids and transition indices are 32-bit: limits.max_nodes >= 2^32
// or a net of 2^32 transitions or more throws std::invalid_argument.
ReachabilityGraph explore(const PetriNet& net, const std::vector<Config>& roots,
                          const ExploreLimits& limits = {},
                          const std::function<bool(ConfigView)>& stop = {});

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
