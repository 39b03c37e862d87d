// Bottom-configuration witnesses (Theorem 6.1).
//
// Theorem 6.1 says: from any marking rho there is a short execution to
// a configuration that is "bottom" -- the part of the net that stays
// bounded has settled into a closed, strongly connected component,
// while the remaining places can be pumped arbitrarily high. This
// module materializes that statement as a checkable witness tuple
// (sigma, w, Q, alpha, beta):
//
//   * sigma          rho --sigma--> alpha (replayable transition word);
//   * Q (q_mask)     the places that stay bounded at the bottom;
//   * w, beta        alpha --w--> beta with beta >= alpha, and
//                    beta[p] == alpha[p] exactly for p in Q: repeating
//                    w pumps every place outside Q without bound while
//                    fixing the Q-part;
//   * component      the T|Q-component of alpha|Q, i.e. the strongly
//                    connected component of alpha restricted to Q in
//                    the reachability graph of the sub-net net.restrict
//                    (q_mask). Bottomness requires it to be closed two
//                    ways: no T|Q step leaves it, and no Q-projected
//                    step of ANY transition leaves it (the projection
//                    is the dynamics visible on Q once the places
//                    outside Q hold omega many tokens -- this second
//                    closure is what makes the Section 7 control-state
//                    net of the component well-defined, and it is
//                    ControlStateNet::from_component(...).closed()).
//
// check_bottom_witness re-validates all of the above by replay, so a
// witness is a machine-checked certificate, and the paper's length
// bound b (bounds::log2_theorem61_b) can be compared against |sigma|
// and |w| measured on concrete nets (bench E6).

#ifndef PPSC_PETRI_BOTTOM_H
#define PPSC_PETRI_BOTTOM_H

#include <cstddef>
#include <optional>
#include <vector>

#include "petri/petri_net.h"
#include "petri/reachability.h"

namespace ppsc {
namespace petri {

struct BottomWitness {
  std::vector<std::size_t> sigma;  // rho --sigma--> alpha
  std::vector<std::size_t> w;      // alpha --w--> beta
  std::vector<bool> q_mask;        // Q: the bounded places
  Config alpha;
  Config beta;
  std::size_t component_size = 0;  // |T|Q-component of alpha|Q|
};

// The strongly connected component of `from` in the reachability graph
// of `net`, explored up to `limits`. `closed` certifies bottomness of
// the component: exploration untruncated and no edge leaves it.
struct Component {
  std::vector<Config> members;  // discovery order, members.front() == from
  bool closed = false;
};

Component component_of(const PetriNet& net, const Config& from,
                       const ExploreLimits& limits = {});

// Searches for a Theorem 6.1 witness from rho. Finite reachability
// graphs always yield one (a bottom SCC with Q = all places and w
// empty); pumping nets go through Karp-Miller omega-sets and a bounded
// concrete search for the pumping word. std::nullopt when the limits
// are too tight for either phase.
std::optional<BottomWitness> find_bottom_witness(
    const PetriNet& net, const Config& rho, const ExploreLimits& limits = {});

// Replays sigma and w and re-derives the component; true iff every
// clause of the witness definition above holds.
bool check_bottom_witness(const PetriNet& net, const Config& rho,
                          const BottomWitness& witness,
                          const ExploreLimits& limits = {});

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_BOTTOM_H
