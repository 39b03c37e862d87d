// Karp-Miller coverability graph with omega-acceleration.
//
// Omega-marking convention (shared with bottom.h): a marking entry
// equal to kOmega means "arbitrarily many tokens can be put on this
// place". kOmega absorbs transition effects (omega +- k = omega) and
// dominates every finite count in the covering order. Because kOmega
// is the largest Count, the finite-marking primitives already read
// omega right and the construction uses them unchanged: an omega place
// meets every pre arc and is occupied, so PetriNet::enabled_transitions
// finds exactly the omega-enabled transitions, and Config::covers, the
// componentwise >=, is exactly the omega covering order. Only firing
// needs its own step, so that omega absorbs the delta. Acceleration is
// the classical rule: when a new marking strictly dominates one of its
// ancestors, every strictly increased place is promoted to omega --
// repeating the pumping word between the two nodes grows those places
// without bound.
//
// The construction here is the graph variant: markings equal to an
// already-expanded one are shared instead of re-expanded, which keeps
// the covering semantics (a marking >= target exists in the graph iff
// target is coverable) while staying much smaller than the tree.

#ifndef PPSC_PETRI_KARP_MILLER_H
#define PPSC_PETRI_KARP_MILLER_H

#include <cstddef>
#include <limits>
#include <vector>

#include "petri/petri_net.h"

namespace ppsc {
namespace petri {

// Omega sentinel inside Config entries: the largest Count (see the file
// comment).
constexpr Count kOmega = std::numeric_limits<Count>::max();

struct KarpMillerNode {
  Config marking;           // entries may be kOmega
  std::size_t parent;       // index into nodes, kNoParent on the root
  std::size_t transition;   // transition fired from the parent
};

struct KarpMillerResult {
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  std::vector<KarpMillerNode> nodes;
  bool truncated = false;

  // Some marking in the graph dominates `target` (omega covers all).
  bool covers(const Config& target) const;

  // keep[p] == true iff place p is finite in marking `node`; the false
  // places are exactly the omega (pumpable) ones.
  std::vector<bool> finite_places(std::size_t node) const;
};

// Builds the Karp-Miller graph from `root`, giving up (truncated) after
// `max_nodes` markings. On untruncated results `covers` decides
// coverability from `root` exactly.
KarpMillerResult karp_miller(const PetriNet& net, const Config& root,
                             std::size_t max_nodes);

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_KARP_MILLER_H
