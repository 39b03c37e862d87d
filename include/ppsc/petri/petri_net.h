// General (possibly non-conservative) Petri nets for the decision
// engines of Sections 5-7.
//
// core::PetriNet models population protocols and therefore insists on
// conservation; the coverability / Karp-Miller / bottom machinery needs
// nets that pump (Theorem 6.1's whole point is that some places grow
// without bound), so this layer drops every structural restriction:
// transitions may create or destroy tokens and may even be identities.
// An implicit adapter from core::PetriNet lets a protocol's net() flow
// into the engines directly.
//
// Two notions of sub-net are used by the paper and kept distinct here:
//
//  * restrict(keep) -- the sub-net T|Q: only transitions whose pre AND
//    post are entirely supported on the kept places survive (Section 8
//    restricts Example 4.2 to P \ I this way).
//  * project(keep)  -- every transition survives with its pre/post
//    truncated to the kept places. This is the dynamics seen on Q when
//    all other places hold omega many tokens, which is how bottom
//    components and control-state nets look at a marking (Section 6-7).
//
// Every transition is also compiled, once, when add() appends it: its
// sparse pre list and sparse delta list (post - pre, nonzero entries in
// increasing place order), and an enabledness index that files it
// under its lowest pre place (or among the always-candidates when its
// pre is empty). A transition can only be enabled in a configuration
// that occupies its lowest pre place, so enabled_transitions() tests
// just the buckets of the occupied places instead of every transition.
// The index lives on the net and is shared by every configuration, so
// explore() and its consumers pay for it once per net, not per marking.

#ifndef PPSC_PETRI_PETRI_NET_H
#define PPSC_PETRI_PETRI_NET_H

#include <cstddef>
#include <optional>
#include <vector>

#include "core/protocol.h"
#include "petri/config.h"
#include "util/span.h"

namespace ppsc {
namespace petri {

// One nonzero entry of a sparse pre or delta vector.
struct Arc {
  std::size_t place;
  Count count;
};

struct Transition {
  Config pre;
  Config post;

  // Number of tokens consumed (the interaction width of Section 4).
  Count width() const { return pre.total(); }
};

class PetriNet {
 public:
  explicit PetriNet(std::size_t num_states = 0)
      : num_states_(num_states), by_lowest_pre_(num_states) {}

  // Adapter from the protocol-level net: same places, same transitions.
  PetriNet(const core::PetriNet& net);

  std::size_t num_states() const { return num_states_; }
  std::size_t num_transitions() const { return transitions_.size(); }
  const Transition& transition(std::size_t i) const { return transitions_[i]; }
  const std::vector<Transition>& transitions() const { return transitions_; }

  // Appends a transition and compiles it into the sparse lists and the
  // enabledness index; only dimensions are checked (negative counts are
  // rejected, identities and non-conservative effects are allowed).
  void add(Config pre, Config post);

  // Largest entry over all pre and post vectors (||T||_inf).
  Count norm_inf() const;

  // Largest transition width.
  Count max_width() const;

  bool enabled(std::size_t t, const Config& config) const;
  Config fire(std::size_t t, const Config& config) const;

  // Clears `out` and fills it with the transitions enabled in `config`,
  // in ascending index order -- the order a dense scan over every
  // transition would find them in. Only the index's candidates for the
  // occupied places (plus the empty-pre transitions) are tested against
  // `config` (which must have num_states() places); returns how many
  // that was.
  std::size_t enabled_transitions(ConfigView config,
                                  std::vector<std::size_t>& out) const;

  // The sparse pre and delta (post - pre) lists of transition t,
  // nonzero entries in increasing place order.
  util::Span<Arc> pre(std::size_t t) const {
    return {pre_arcs_.data() + pre_begin_[t],
            pre_arcs_.data() + pre_begin_[t + 1]};
  }
  util::Span<Arc> delta(std::size_t t) const {
    return {delta_arcs_.data() + delta_begin_[t],
            delta_arcs_.data() + delta_begin_[t + 1]};
  }

  // Sub-net T|Q: keeps the places with keep[p] == true (re-indexed) and
  // only the transitions entirely supported on them.
  PetriNet restrict(const std::vector<bool>& keep) const;

  // Projection: keeps every transition, truncating pre/post to the kept
  // places. Transition indices are preserved.
  PetriNet project(const std::vector<bool>& keep) const;

 private:
  bool covers_pre(std::size_t t, ConfigView config) const;

  std::size_t num_states_;
  std::vector<Transition> transitions_;
  // Sparse pre and delta lists of transition t:
  // pre_arcs_[pre_begin_[t] .. pre_begin_[t + 1]), likewise for delta.
  std::vector<Arc> pre_arcs_;
  std::vector<std::size_t> pre_begin_ = {0};
  std::vector<Arc> delta_arcs_;
  std::vector<std::size_t> delta_begin_ = {0};
  // by_lowest_pre_[p]: transitions whose lowest pre place is p, in
  // ascending index order; empty_pre_: transitions with no pre at all.
  std::vector<std::vector<std::size_t>> by_lowest_pre_;
  std::vector<std::size_t> empty_pre_;
};

// One step of the Q-projected dynamics (the Section 6/7 view with
// omega tokens outside Q): fires `t` restricted to the places with
// keep[p] == true on `marking`, a configuration over those places.
// std::nullopt when the projected pre is not covered. Shared by the
// bottom-witness closure check and ControlStateNet::from_component.
std::optional<Config> projected_step(const Transition& t,
                                     const std::vector<bool>& keep,
                                     const Config& marking);

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_PETRI_NET_H
