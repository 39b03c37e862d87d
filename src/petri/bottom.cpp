#include "petri/bottom.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "petri/control_net.h"
#include "petri/karp_miller.h"

namespace ppsc {
namespace petri {

namespace {

// How many explored markings find_bottom_witness tries as alpha, per
// candidate omega-set, before giving up (each try runs a bounded pump
// search); the witnesses of interest sit close to rho.
constexpr std::size_t kMaxAlphaCandidates = 64;

// The component of alpha|Q must be closed both ways: no T|Q step and no
// Q-projected step of any transition (the dynamics with omega tokens
// outside Q) leaves it.
bool closed_both_ways(const PetriNet& net, const std::vector<bool>& q_mask,
                      const Component& component) {
  return component.closed &&
         ControlStateNet::from_component(net, component.members, q_mask)
             .closed();
}

// beta >= alpha, equal exactly on Q: firing alpha --w--> beta again and
// again pumps every place outside Q.
bool is_pump_of(ConfigView beta, const Config& alpha,
                const std::vector<bool>& q_mask) {
  if (!beta.covers(alpha)) return false;
  for (std::size_t p = 0; p < beta.size(); ++p) {
    const bool grew = beta[p] > alpha[p];
    if (grew == q_mask[p]) return false;
  }
  return true;
}

// Bounded BFS from alpha for a pump beta; returns the word
// alpha --w--> beta.
std::optional<std::pair<std::vector<std::size_t>, Config>> find_pump(
    const PetriNet& net, const Config& alpha, const std::vector<bool>& q_mask,
    const ExploreLimits& limits) {
  // BFS with early exit: the first marking >= alpha that grew exactly
  // outside Q ends the search (and BFS makes its word a shortest one).
  const ReachabilityGraph graph = explore(
      net, {alpha}, limits,
      [&](ConfigView c) { return is_pump_of(c, alpha, q_mask); });
  if (!graph.stopped.has_value()) return std::nullopt;
  return std::make_pair(graph.word_to(*graph.stopped),
                        graph.config(*graph.stopped));
}

// Validates alpha as a bottom configuration for the given Q; fills in
// w, beta and the component when it is one.
bool complete_witness(const PetriNet& net, const Config& alpha,
                      const std::vector<bool>& q_mask,
                      const ExploreLimits& limits, BottomWitness* witness) {
  bool all_bounded = true;
  for (bool in_q : q_mask) all_bounded = all_bounded && in_q;
  if (all_bounded) {
    witness->w.clear();
    witness->beta = alpha;
  } else {
    auto pump = find_pump(net, alpha, q_mask, limits);
    if (!pump.has_value()) return false;
    witness->w = std::move(pump->first);
    witness->beta = std::move(pump->second);
  }
  const Component component =
      component_of(net.restrict(q_mask), alpha.restrict(q_mask), limits);
  if (!closed_both_ways(net, q_mask, component)) return false;
  witness->q_mask = q_mask;
  witness->alpha = alpha;
  witness->component_size = component.members.size();
  return true;
}

}  // namespace

Component component_of(const PetriNet& net, const Config& from,
                       const ExploreLimits& limits) {
  if (from.size() != net.num_states()) {
    throw std::invalid_argument("component_of: dimension mismatch");
  }
  Component component;
  const ReachabilityGraph graph = explore(net, {from}, limits);
  const SccDecomposition scc = scc_decompose(graph);
  const std::size_t home = scc.component[0];
  for (std::size_t i = 0; i < graph.size(); ++i) {
    if (scc.component[i] == home) component.members.push_back(graph.config(i));
  }
  component.closed = !graph.truncated && scc.bottom[home];
  return component;
}

std::optional<BottomWitness> find_bottom_witness(const PetriNet& net,
                                                 const Config& rho,
                                                 const ExploreLimits& limits) {
  if (rho.size() != net.num_states()) {
    throw std::invalid_argument("find_bottom_witness: dimension mismatch");
  }
  const ReachabilityGraph graph = explore(net, {rho}, limits);

  if (!graph.truncated) {
    // Finite case: the first explored member of any bottom SCC is a
    // bottom configuration with Q = all places and an empty pump.
    const SccDecomposition scc = scc_decompose(graph);
    for (std::size_t i = 0; i < graph.size(); ++i) {
      if (!scc.bottom[scc.component[i]]) continue;
      BottomWitness witness;
      witness.sigma = graph.word_to(i);
      if (!complete_witness(net, graph.config(i),
                            std::vector<bool>(net.num_states(), true), limits,
                            &witness)) {
        continue;
      }
      return witness;
    }
    return std::nullopt;
  }

  // Pumping case: candidate Q sets are complements of the omega-sets
  // Karp-Miller discovers, largest omega-sets (deepest pumping) first.
  const KarpMillerResult km = karp_miller(net, rho, limits.max_nodes);
  std::vector<std::vector<bool>> candidates;
  for (std::size_t n = 0; n < km.nodes.size(); ++n) {
    std::vector<bool> keep = km.finite_places(n);
    if (std::find(keep.begin(), keep.end(), false) == keep.end()) continue;
    if (std::find(candidates.begin(), candidates.end(), keep) ==
        candidates.end()) {
      candidates.push_back(std::move(keep));
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const std::vector<bool>& a, const std::vector<bool>& b) {
                     return std::count(a.begin(), a.end(), false) >
                            std::count(b.begin(), b.end(), false);
                   });
  for (const std::vector<bool>& q_mask : candidates) {
    const std::size_t tries =
        std::min(graph.size(), kMaxAlphaCandidates);
    for (std::size_t i = 0; i < tries; ++i) {
      BottomWitness witness;
      witness.sigma = graph.word_to(i);
      if (complete_witness(net, graph.config(i), q_mask, limits, &witness)) {
        return witness;
      }
    }
  }
  return std::nullopt;
}

bool check_bottom_witness(const PetriNet& net, const Config& rho,
                          const BottomWitness& witness,
                          const ExploreLimits& limits) {
  if (witness.q_mask.size() != net.num_states()) return false;
  const std::optional<Config> alpha = fire_word(net, rho, witness.sigma);
  if (!alpha.has_value() || *alpha != witness.alpha) return false;
  const std::optional<Config> beta = fire_word(net, *alpha, witness.w);
  if (!beta.has_value() || *beta != witness.beta) return false;
  if (!is_pump_of(*beta, *alpha, witness.q_mask)) return false;
  const Component component = component_of(
      net.restrict(witness.q_mask), alpha->restrict(witness.q_mask), limits);
  return component.members.size() == witness.component_size &&
         closed_both_ways(net, witness.q_mask, component);
}

}  // namespace petri
}  // namespace ppsc
