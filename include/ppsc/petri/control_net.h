// Control-state nets: a Petri net steered by a finite control graph
// (Section 7).
//
// A control-state net is a finite set of control states S, a Petri net
// over the remaining places, and directed edges (s, t, s') labelled by
// transitions of that net. It is how the Theorem 4.3 pipeline looks at
// a bottom component: the component's markings on the bounded places Q
// become the control states (the Petri-net places are the pumpable ones
// outside Q, which hold omega many tokens and never constrain firing),
// and each original transition contributes its off-Q effect as the edge
// label -- see from_component.
//
// total_cycle implements Lemma 7.2: in a strongly connected control
// graph, one simple cycle per edge (the edge followed by a shortest
// path back) merged by the Euler lemma yields a single closed walk
// through the anchor using every edge at least once, of length at most
// |E| * |S|. The merge is euler_circuit: a multiset of edges whose
// every control state is balanced (in-degree == out-degree, with
// multiplicities) and whose edges are connected has an Euler circuit,
// a closed walk traversing every edge instance exactly once. Lemma
// 7.3's replacements (solver/multicycle.h) are realized the same way.

#ifndef PPSC_PETRI_CONTROL_NET_H
#define PPSC_PETRI_CONTROL_NET_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "petri/petri_net.h"

namespace ppsc {
namespace petri {

class ControlStateNet {
 public:
  struct Edge {
    std::size_t from;
    std::size_t transition;  // transition index of net() (and of the
                             // original net: projection keeps indices)
    std::size_t to;
  };

  ControlStateNet(PetriNet net, std::size_t num_controls)
      : net_(std::move(net)),
        num_controls_(num_controls),
        out_(num_controls) {}

  // The control-state net of a bottom component: `members` are the
  // component's markings over the places with q_mask[p] == true (as
  // produced by bottom.h's component_of), and every transition of `net`
  // whose Q-projected pre is covered by a member contributes an edge to
  // the member it maps that marking to (edges leaving the member set
  // are dropped, and closed() reports whether there were any). The
  // underlying Petri net is `net` projected onto the complement of
  // q_mask, transition indices preserved.
  static ControlStateNet from_component(const PetriNet& net,
                                        const std::vector<Config>& members,
                                        const std::vector<bool>& q_mask);

  std::size_t num_controls() const { return num_controls_; }
  std::size_t num_edges() const { return edges_.size(); }
  const Edge& edge(std::size_t e) const { return edges_[e]; }
  const PetriNet& net() const { return net_; }
  // False iff from_component dropped an edge: some Q-projected step of
  // a member leaves the member set (bottom.h's second closure).
  bool closed() const { return closed_; }

  void add_edge(std::size_t from, std::size_t transition, std::size_t to);

  // Every control state reaches every other along edges. Vacuously true
  // without edges only when there is at most one control state.
  bool strongly_connected() const;

  // Lemma 7.2: a closed walk from `anchor` using every edge at least
  // once, of length <= num_edges() * num_controls(). std::nullopt when
  // the control graph is not strongly connected or has no edges.
  std::optional<std::vector<std::size_t>> total_cycle(
      std::size_t anchor) const;

  // Euler circuit of the multigraph taking edge e `multiplicity[e]`
  // times, starting and ending at `start`: the walk as edge ids (an id
  // repeats once per multiplicity), empty when every multiplicity is 0.
  // std::nullopt when some control state is unbalanced or some used
  // edge is not reachable from `start`.
  std::optional<std::vector<std::size_t>> euler_circuit(
      const std::vector<std::uint64_t>& multiplicity, std::size_t start) const;

  // Occurrences of each edge in a walk.
  std::vector<std::uint64_t> parikh(const std::vector<std::size_t>& walk) const;

  // The walk is connected edge-to-edge and starts and ends at `anchor`
  // (an empty walk counts as the trivial cycle).
  bool is_cycle(const std::vector<std::size_t>& walk,
                std::size_t anchor) const;

  // Net-level effect of a multicycle with this Parikh image on the
  // underlying places (entries may be negative).
  std::vector<Count> displacement(
      const std::vector<std::uint64_t>& edge_counts) const;

 private:
  PetriNet net_;
  std::size_t num_controls_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> out_;  // edge ids leaving s, ascending
  bool closed_ = true;
};

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_CONTROL_NET_H
