#include "petri/reachability.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppsc {
namespace petri {

std::vector<std::size_t> ReachabilityGraph::word_to(std::size_t node) const {
  std::vector<std::size_t> word;
  while (parent[node] != kNoParent) {
    word.push_back(parent_transition[node]);
    node = parent[node];
  }
  std::reverse(word.begin(), word.end());
  return word;
}

ReachabilityGraph explore(const PetriNet& net, const std::vector<Config>& roots,
                          const ExploreLimits& limits,
                          const std::function<bool(const Config&)>& stop) {
  obs::ScopedTimer timer("explore");
  obs::ScopedSpan span("explore", "petri");
  // Bucket scans re-hash the config, so collision accounting is only
  // collected when someone is watching.
  const bool count_collisions = obs::MetricRegistry::global().enabled();
  ReachabilityGraph graph;
  ExploreStats& stats = graph.stats;
  std::unordered_map<Config, std::size_t, ConfigHash> ids;
  const auto note_insertion = [&](const Config& config) {
    if (count_collisions) {
      stats.collisions += ids.bucket_size(ids.bucket(config)) - 1;
    }
  };
  {
    obs::ScopedSpan seed_span("explore.seed", "petri");
    for (const Config& root : roots) {
      if (root.size() != net.num_states()) {
        throw std::invalid_argument("explore: root dimension mismatch");
      }
      ++stats.probes;
      if (ids.count(root)) continue;
      ids.emplace(root, graph.nodes.size());
      note_insertion(root);
      graph.nodes.push_back(root);
      graph.edges.emplace_back();
      graph.parent.push_back(ReachabilityGraph::kNoParent);
      graph.parent_transition.push_back(0);
      if (!graph.stopped && stop && stop(root)) {
        graph.stopped = graph.nodes.size() - 1;
      }
    }
  }
  {
    obs::ScopedSpan frontier_span("explore.frontier", "petri");
    // Chunk spans slice the BFS into fixed node windows, so a Perfetto
    // view shows where the expansion slowed down (hash-table growth,
    // widening frontier) without per-node events.
    constexpr std::size_t kChunkNodes = 8192;
    std::optional<obs::ScopedSpan> chunk_span;
    std::vector<std::size_t> enabled;
    for (std::size_t head = 0;
         head < graph.nodes.size() && !graph.stopped; ++head) {
      if (head % kChunkNodes == 0 && graph.nodes.size() > kChunkNodes) {
        chunk_span.emplace("explore.chunk", "petri");
        chunk_span->arg("head", head);
        chunk_span->arg("frontier", graph.nodes.size() - head);
      }
      stats.frontier_peak =
          std::max(stats.frontier_peak, graph.nodes.size() - head);
      // Copy: nodes may reallocate while we append successors.
      // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
      const Config current = graph.nodes[head];
      stats.enabled_checks += net.enabled_transitions(current, enabled);
      for (const std::size_t t : enabled) {
        Config next = net.fire(t, current);
        ++stats.probes;
        auto it = ids.find(next);
        if (it == ids.end()) {
          if (graph.nodes.size() >= limits.max_nodes) {
            graph.truncated = true;
            continue;
          }
          it = ids.emplace(std::move(next), graph.nodes.size()).first;
          note_insertion(it->first);
          graph.nodes.push_back(it->first);
          graph.edges.emplace_back();
          graph.parent.push_back(head);
          graph.parent_transition.push_back(t);
          if (stop && stop(it->first)) {
            graph.stopped = graph.nodes.size() - 1;
          }
        }
        graph.edges[head].push_back({it->second, t});
        ++stats.edges;
        if (graph.stopped) break;
      }
    }
  }
  stats.configs = graph.nodes.size();
  stats.truncated = graph.truncated;
  span.arg("configs", stats.configs);
  span.arg("edges", stats.edges);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("explore.configs", stats.configs);
    registry.add("explore.edges", stats.edges);
    registry.add("explore.probes", stats.probes);
    registry.add("explore.enabled_checks", stats.enabled_checks);
    registry.add("explore.collisions", stats.collisions);
    registry.add("explore.truncated", stats.truncated ? 1 : 0);
    registry.record("explore.frontier_peak", stats.frontier_peak);
  }
  return graph;
}

std::optional<Config> fire_word(const PetriNet& net, Config from,
                                const std::vector<std::size_t>& word) {
  for (std::size_t t : word) {
    if (t >= net.num_transitions() || !net.enabled(t, from)) {
      return std::nullopt;
    }
    from = net.fire(t, from);
  }
  return from;
}

SccDecomposition scc_decompose(const ReachabilityGraph& graph) {
  const std::size_t n = graph.nodes.size();
  const std::size_t kNone = static_cast<std::size_t>(-1);
  SccDecomposition out;
  out.component.assign(n, kNone);
  std::vector<std::size_t> index(n, kNone);
  std::vector<std::size_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t edge;
  };
  std::vector<Frame> call_stack;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t u = frame.node;
      if (frame.edge < graph.edges[u].size()) {
        const std::size_t v = graph.edges[u][frame.edge++].target;
        if (index[v] == kNone) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          call_stack.push_back({v, 0});
        } else if (on_stack[v]) {
          lowlink[u] = std::min(lowlink[u], index[v]);
        }
      } else {
        if (lowlink[u] == index[u]) {
          while (true) {
            const std::size_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            out.component[w] = out.count;
            if (w == u) break;
          }
          ++out.count;
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const std::size_t up = call_stack.back().node;
          lowlink[up] = std::min(lowlink[up], lowlink[u]);
        }
      }
    }
  }
  out.bottom.assign(out.count, true);
  for (std::size_t u = 0; u < n; ++u) {
    for (const ReachEdge& e : graph.edges[u]) {
      if (out.component[u] != out.component[e.target]) {
        out.bottom[out.component[u]] = false;
      }
    }
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc
