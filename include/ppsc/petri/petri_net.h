// Petri nets: the one transition store of the repository.
//
// A population protocol is a conservative Petri net over its states
// (core::Protocol owns one, compiled once by ProtocolBuilder::build(),
// which also enforces conservation and names every rule). The
// coverability / Karp-Miller / bottom machinery of Sections 5-7 needs
// nets that pump (Theorem 6.1's whole point is that some places grow
// without bound), so this class itself drops every structural
// restriction: transitions may create or destroy tokens and may even
// be identities. petri is the base layer; it depends on no protocol
// type.
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
// A transition is stored only as sparse arcs: its pre list, its post
// list and its delta list (post - pre), each holding the nonzero
// entries in increasing place order. A width-w transition touches at
// most 2w places, and every engine reads it through these lists:
// enabledness covers pre, firing adds delta, Rackoff's backward step is
// max(pre, m - delta), and sub-nets remap the arcs. The sparse add()
// compiles all three lists once, together with an enabledness index
// that files the transition under its lowest pre place (or among the
// always-candidates when its pre is empty). A transition can only be
// enabled in a configuration that occupies its lowest pre place, so
// enabled_transitions() tests just the buckets of the occupied places
// instead of every transition. The index lives on the net and is
// shared by every configuration, so explore() and its consumers pay
// for it once per net, not per marking. There is one compile path:
// the sparse add(); the dense add() sparsifies and forwards to it.

#ifndef PPSC_PETRI_PETRI_NET_H
#define PPSC_PETRI_PETRI_NET_H

#include <cstddef>
#include <vector>

#include "petri/config.h"
#include "util/span.h"

namespace ppsc {
namespace petri {

// One nonzero entry of a sparse pre, post or delta vector.
struct Arc {
  std::size_t place;
  Count count;

  friend bool operator==(const Arc& a, const Arc& b) {
    return a.place == b.place && a.count == b.count;
  }
};

class PetriNet {
 public:
  explicit PetriNet(std::size_t num_states = 0)
      : num_states_(num_states), by_lowest_pre_(num_states) {}

  std::size_t num_states() const { return num_states_; }
  std::size_t num_transitions() const { return pre_.begin.size() - 1; }

  // Appends a transition given by its sparse pre and post lists:
  // places strictly increasing and below num_states(), counts > 0
  // (violations throw std::invalid_argument). Identities and
  // non-conservative effects are allowed.
  void add(util::Span<Arc> pre, util::Span<Arc> post);
  // Dense spelling of the same: pre/post of size num_states(), counts
  // >= 0; sparsified and forwarded to the sparse add().
  void add(const Config& pre, const Config& post);
  // Capacity for `transitions` more transitions whose pre and post
  // lists hold `arcs` arcs in all.
  void reserve(std::size_t transitions, std::size_t arcs);

  // Largest entry over all pre and post vectors (||T||_inf).
  Count norm_inf() const;

  // Tokens transition t consumes (its interaction width, Section 4).
  Count width(std::size_t t) const;

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

  // The sparse pre, post and delta (post - pre) lists of transition t,
  // nonzero entries in increasing place order.
  util::Span<Arc> pre(std::size_t t) const { return pre_[t]; }
  util::Span<Arc> post(std::size_t t) const { return post_[t]; }
  util::Span<Arc> delta(std::size_t t) const { return delta_[t]; }

  // Sub-net T|Q: keeps the places with keep[p] == true (re-indexed) and
  // only the transitions entirely supported on them.
  PetriNet restrict(const std::vector<bool>& keep) const;

  // Projection: keeps every transition, truncating pre/post to the kept
  // places. Transition indices are preserved, so enabled()/fire() on
  // the projection are the Q-projected step of the original transition.
  PetriNet project(const std::vector<bool>& keep) const;

 private:
  // One arc list per transition, stored back to back: transition t's
  // list is arcs[begin[t] .. begin[t + 1]).
  struct ArcLists {
    std::vector<Arc> arcs;
    std::vector<std::size_t> begin = {0};

    util::Span<Arc> operator[](std::size_t t) const {
      return {arcs.data() + begin[t], arcs.data() + begin[t + 1]};
    }
    void close() { begin.push_back(arcs.size()); }
    void reserve(std::size_t lists, std::size_t more_arcs) {
      begin.reserve(begin.size() + lists);
      arcs.reserve(arcs.size() + more_arcs);
    }
  };

  bool covers_pre(std::size_t t, ConfigView config) const;
  // restrict() (keep_all == false) and project() (keep_all == true):
  // arcs remapped through the kept-place index.
  PetriNet sub_net(const std::vector<bool>& keep, bool keep_all,
                   const char* caller) const;

  std::size_t num_states_;
  ArcLists pre_;
  ArcLists post_;
  ArcLists delta_;
  // by_lowest_pre_[p]: transitions whose lowest pre place is p, in
  // ascending index order; empty_pre_: transitions with no pre at all.
  std::vector<std::vector<std::size_t>> by_lowest_pre_;
  std::vector<std::size_t> empty_pre_;
};

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_PETRI_NET_H
