#include "petri/control_net.h"

#include <algorithm>
#include <deque>
#include <map>
#include <stdexcept>

namespace ppsc {
namespace petri {

ControlStateNet ControlStateNet::from_component(
    const PetriNet& net, const std::vector<Config>& members,
    const std::vector<bool>& q_mask) {
  if (q_mask.size() != net.num_states()) {
    throw std::invalid_argument(
        "ControlStateNet::from_component: mask dimension mismatch");
  }
  std::vector<bool> complement(q_mask.size());
  for (std::size_t p = 0; p < q_mask.size(); ++p) complement[p] = !q_mask[p];
  ControlStateNet cnet(net.project(complement), members.size());

  std::map<Config, std::size_t> index;
  for (std::size_t m = 0; m < members.size(); ++m) index.emplace(members[m], m);
  const PetriNet on_q = net.project(q_mask);
  for (std::size_t m = 0; m < members.size(); ++m) {
    for (std::size_t t = 0; t < on_q.num_transitions(); ++t) {
      if (!on_q.enabled(t, members[m])) continue;
      auto it = index.find(on_q.fire(t, members[m]));
      if (it == index.end()) {
        cnet.closed_ = false;
        continue;
      }
      cnet.add_edge(m, t, it->second);
    }
  }
  return cnet;
}

void ControlStateNet::add_edge(std::size_t from, std::size_t transition,
                               std::size_t to) {
  if (from >= num_controls_ || to >= num_controls_) {
    throw std::invalid_argument("ControlStateNet::add_edge: control range");
  }
  if (transition >= net_.num_transitions()) {
    throw std::invalid_argument("ControlStateNet::add_edge: transition range");
  }
  out_[from].push_back(edges_.size());
  edges_.push_back({from, transition, to});
}

namespace {

// The control states reachable from `start` when edge ids
// `adjacency[u]` lead from u to `head(e)`.
template <typename Head>
std::vector<bool> reachable_from(
    std::size_t start, const std::vector<std::vector<std::size_t>>& adjacency,
    Head head) {
  std::vector<bool> seen(adjacency.size(), false);
  seen[start] = true;
  std::vector<std::size_t> stack{start};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    for (std::size_t e : adjacency[u]) {
      const std::size_t v = head(e);
      if (!seen[v]) {
        seen[v] = true;
        stack.push_back(v);
      }
    }
  }
  return seen;
}

}  // namespace

bool ControlStateNet::strongly_connected() const {
  if (num_controls_ <= 1) return true;
  std::vector<std::vector<std::size_t>> in(num_controls_);
  for (std::size_t e = 0; e < edges_.size(); ++e) in[edges_[e].to].push_back(e);
  const std::vector<bool> fwd =
      reachable_from(0, out_, [&](std::size_t e) { return edges_[e].to; });
  const std::vector<bool> bwd =
      reachable_from(0, in, [&](std::size_t e) { return edges_[e].from; });
  for (std::size_t s = 0; s < num_controls_; ++s) {
    if (!fwd[s] || !bwd[s]) return false;
  }
  return true;
}

std::optional<std::vector<std::size_t>> ControlStateNet::total_cycle(
    std::size_t anchor) const {
  if (anchor >= num_controls_ || edges_.empty() || !strongly_connected()) {
    return std::nullopt;
  }
  // BFS shortest edge-paths between all control pairs (graphs here are
  // tiny; |S| rounds of BFS are plenty).
  const std::size_t kNone = static_cast<std::size_t>(-1);
  auto shortest_path = [&](std::size_t from,
                           std::size_t to) -> std::vector<std::size_t> {
    std::vector<std::size_t> via(num_controls_, kNone);  // edge into node
    std::vector<std::size_t> prev(num_controls_, kNone);
    std::vector<bool> seen(num_controls_, false);
    std::deque<std::size_t> queue{from};
    seen[from] = true;
    while (!queue.empty() && !seen[to]) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (std::size_t e : out_[u]) {
        const std::size_t v = edges_[e].to;
        if (seen[v]) continue;
        seen[v] = true;
        via[v] = e;
        prev[v] = u;
        queue.push_back(v);
      }
    }
    std::vector<std::size_t> path;
    for (std::size_t at = to; at != from; at = prev[at]) {
      path.push_back(via[at]);
    }
    std::reverse(path.begin(), path.end());
    return path;
  };

  // One simple cycle per edge: the edge, then a shortest path back to
  // its tail -- at most |S| edges each, so the multiset has at most
  // |E| * |S| edge instances.
  std::vector<std::uint64_t> multiplicity(edges_.size(), 0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    ++multiplicity[e];
    for (std::size_t back : shortest_path(edges_[e].to, edges_[e].from)) {
      ++multiplicity[back];
    }
  }
  return euler_circuit(multiplicity, anchor);
}

std::optional<std::vector<std::size_t>> ControlStateNet::euler_circuit(
    const std::vector<std::uint64_t>& multiplicity, std::size_t start) const {
  if (multiplicity.size() != edges_.size()) {
    throw std::invalid_argument(
        "ControlStateNet::euler_circuit: multiplicity size mismatch");
  }
  if (start >= num_controls_) {
    throw std::invalid_argument("ControlStateNet::euler_circuit: start range");
  }
  std::uint64_t total = 0;
  std::vector<std::int64_t> balance(num_controls_, 0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    total += multiplicity[e];
    balance[edges_[e].from] += static_cast<std::int64_t>(multiplicity[e]);
    balance[edges_[e].to] -= static_cast<std::int64_t>(multiplicity[e]);
  }
  for (std::int64_t b : balance) {
    if (b != 0) return std::nullopt;
  }

  // Hierholzer with per-edge remaining counts. With every state
  // balanced it uses up exactly the used edges reachable from start, so
  // a short walk means some used edge is not connected to start.
  std::vector<std::uint64_t> remaining = multiplicity;
  std::vector<std::size_t> cursor(num_controls_, 0);
  std::vector<std::size_t> vertex_stack{start};
  std::vector<std::size_t> edge_stack;
  std::vector<std::size_t> walk;
  while (!vertex_stack.empty()) {
    const std::size_t u = vertex_stack.back();
    while (cursor[u] < out_[u].size() && remaining[out_[u][cursor[u]]] == 0) {
      ++cursor[u];
    }
    if (cursor[u] < out_[u].size()) {
      const std::size_t e = out_[u][cursor[u]];
      --remaining[e];
      vertex_stack.push_back(edges_[e].to);
      edge_stack.push_back(e);
      continue;
    }
    vertex_stack.pop_back();
    if (!edge_stack.empty()) {
      walk.push_back(edge_stack.back());
      edge_stack.pop_back();
    }
  }
  std::reverse(walk.begin(), walk.end());
  if (walk.size() != total) return std::nullopt;
  return walk;
}

std::vector<std::uint64_t> ControlStateNet::parikh(
    const std::vector<std::size_t>& walk) const {
  std::vector<std::uint64_t> counts(edges_.size(), 0);
  for (std::size_t e : walk) {
    if (e >= edges_.size()) {
      throw std::invalid_argument("ControlStateNet::parikh: edge range");
    }
    ++counts[e];
  }
  return counts;
}

bool ControlStateNet::is_cycle(const std::vector<std::size_t>& walk,
                               std::size_t anchor) const {
  if (walk.empty()) return true;
  std::size_t at = anchor;
  for (std::size_t e : walk) {
    if (e >= edges_.size() || edges_[e].from != at) return false;
    at = edges_[e].to;
  }
  return at == anchor;
}

std::vector<Count> ControlStateNet::displacement(
    const std::vector<std::uint64_t>& edge_counts) const {
  if (edge_counts.size() != edges_.size()) {
    throw std::invalid_argument("ControlStateNet::displacement: size");
  }
  std::vector<Count> delta(net_.num_states(), 0);
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (edge_counts[e] == 0) continue;
    for (const Arc& arc : net_.delta(edges_[e].transition)) {
      delta[arc.place] += static_cast<Count>(edge_counts[e]) * arc.count;
    }
  }
  return delta;
}

}  // namespace petri
}  // namespace ppsc
