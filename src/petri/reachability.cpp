#include "petri/reachability.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppsc {
namespace petri {

std::string describe(const ExploreStats& stats) {
  char per_config[32];
  std::snprintf(per_config, sizeof per_config, "%.1f",
                static_cast<double>(stats.enabled_checks) /
                    std::max(1.0, static_cast<double>(stats.configs)));
  return std::to_string(stats.configs) + " configs, frontier peak " +
         std::to_string(stats.frontier_peak) + ", " + per_config +
         " transitions tested per config";
}

std::vector<std::size_t> ReachabilityGraph::word_to(std::size_t node) const {
  std::vector<std::size_t> word;
  while (parent[node] != kNoParent) {
    word.push_back(parent_transition[node]);
    node = parent[node];
  }
  std::reverse(word.begin(), word.end());
  return word;
}

namespace {

// Open-addressing intern table over the graph's arena: power-of-two
// slots, linear probing, grown at half load. A slot holds a node id
// and the high half of that node's hash, so most probes that will not
// match are rejected without touching the arena.
class InternTable {
 public:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  explicit InternTable(const ReachabilityGraph& graph) : graph_(graph) {
    slots_.assign(kInitialSlots, {kEmpty, 0});
  }

  // Id of the node equal to `config` (hash `h`), or kEmpty; `slot`
  // receives where it would be inserted, `probed` the occupied slots
  // passed on the way.
  std::uint32_t find(const Count* config, std::uint64_t h, std::size_t& slot,
                     std::uint64_t& probed) const {
    const std::size_t d = graph_.dimension;
    const std::size_t mask = slots_.size() - 1;
    const auto tag = static_cast<std::uint32_t>(h >> 32);
    probed = 0;
    for (slot = static_cast<std::size_t>(h) & mask;; slot = (slot + 1) & mask) {
      const Slot& s = slots_[slot];
      if (s.id == kEmpty) return kEmpty;
      // std::equal over Count* compiles to one memcmp.
      const Count* node = graph_.counts.data() + s.id * d;
      if (s.tag == tag && std::equal(config, config + d, node)) return s.id;
      ++probed;
    }
  }

  // Files node `id` (hash `h`) at `slot`, as returned by a failed find.
  void insert(std::size_t slot, std::uint32_t id, std::uint64_t h) {
    slots_[slot] = {id, static_cast<std::uint32_t>(h >> 32)};
    if (2 * (++size_) > slots_.size()) grow();
  }

 private:
  static constexpr std::size_t kInitialSlots = 1024;

  struct Slot {
    std::uint32_t id;
    std::uint32_t tag;
  };

  void grow() {
    std::vector<Slot> old(2 * slots_.size(), Slot{kEmpty, 0});
    old.swap(slots_);
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id == kEmpty) continue;
      std::size_t slot = static_cast<std::size_t>(graph_.hashes[s.id]) & mask;
      while (slots_[slot].id != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = s;
    }
  }

  const ReachabilityGraph& graph_;
  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace

ReachabilityGraph explore(const PetriNet& net, const std::vector<Config>& roots,
                          const ExploreLimits& limits,
                          const std::function<bool(ConfigView)>& stop) {
  if (limits.max_nodes > InternTable::kEmpty) {
    throw std::invalid_argument("explore: max_nodes must be below 2^32");
  }
  if (net.num_transitions() > InternTable::kEmpty) {
    throw std::invalid_argument("explore: more than 2^32 - 1 transitions");
  }
  obs::ScopedSpan span("explore", "petri");
  const std::size_t d = net.num_states();
  ReachabilityGraph graph;
  graph.dimension = d;
  ExploreStats& stats = graph.stats;
  InternTable table(graph);
  // Id of `config` (hash `h`). A new config is appended to the arena
  // as a child of `parent` and checked against `stop` -- unless `room`
  // is false, in which case kEmpty comes back.
  const auto intern = [&](const Count* config, std::uint64_t h, bool room,
                          std::size_t parent,
                          std::size_t transition) -> std::uint32_t {
    ++stats.probes;
    std::size_t slot = 0;
    std::uint64_t probed = 0;
    const std::uint32_t found = table.find(config, h, slot, probed);
    if (found != InternTable::kEmpty || !room) return found;
    stats.collisions += probed;
    const auto id = static_cast<std::uint32_t>(graph.size());
    graph.counts.insert(graph.counts.end(), config, config + d);
    graph.hashes.push_back(h);
    graph.parent.push_back(parent);
    graph.parent_transition.push_back(transition);
    table.insert(slot, id, h);
    if (!graph.stopped && stop && stop(ConfigView(config, d))) {
      graph.stopped = id;
    }
    return id;
  };
  {
    obs::ScopedSpan seed_span("explore.seed", "petri");
    for (const Config& root : roots) {
      if (root.size() != d) {
        throw std::invalid_argument("explore: root dimension mismatch");
      }
      intern(root.begin(), ConfigHash::of(root), true,
             ReachabilityGraph::kNoParent, 0);
    }
  }
  {
    obs::ScopedSpan frontier_span("explore.frontier", "petri");
    // Chunk spans slice the BFS into fixed node windows, so a Perfetto
    // view shows where the expansion slowed down (table growth,
    // widening frontier) without per-node events.
    constexpr std::size_t kChunkNodes = 8192;
    std::optional<obs::ScopedSpan> chunk_span;
    std::vector<std::size_t> enabled;
    // The head's counts, copied out because the arena may reallocate
    // while successors are appended; each successor is built in place
    // by applying a transition's delta and reverting it afterwards.
    std::vector<Count> scratch(d);
    Count* const next = scratch.data();
    for (std::size_t head = 0; head < graph.size() && !graph.stopped; ++head) {
      if (head % kChunkNodes == 0 && graph.size() > kChunkNodes) {
        chunk_span.emplace("explore.chunk", "petri");
        chunk_span->arg("head", head);
        chunk_span->arg("frontier", graph.size() - head);
      }
      stats.frontier_peak = std::max(stats.frontier_peak, graph.size() - head);
      graph.edge_begin.push_back(graph.edges.size());
      std::copy_n(graph.counts.data() + head * d, d, next);
      const std::uint64_t head_hash = graph.hashes[head];
      stats.enabled_checks +=
          net.enabled_transitions(ConfigView(next, d), enabled);
      for (const std::size_t t : enabled) {
        const util::Span<Arc> delta = net.delta(t);
        std::uint64_t h = head_hash;
        for (const Arc& arc : delta) {
          const Count before = next[arc.place];
          next[arc.place] = before + arc.count;
          h += ConfigHash::term(arc.place,
                                static_cast<std::uint64_t>(next[arc.place])) -
               ConfigHash::term(arc.place, static_cast<std::uint64_t>(before));
        }
        const std::uint32_t target =
            intern(next, h, graph.size() < limits.max_nodes, head, t);
        for (const Arc& arc : delta) next[arc.place] -= arc.count;
        if (target == InternTable::kEmpty) {  // new, but over the budget
          graph.truncated = true;
          continue;
        }
        graph.edges.push_back({target, static_cast<std::uint32_t>(t)});
        if (graph.stopped) break;
      }
    }
  }
  graph.edge_begin.resize(graph.size() + 1, graph.edges.size());
  stats.configs = graph.size();
  stats.edges = graph.edges.size();
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
  const std::size_t n = graph.size();
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
    std::size_t edge;  // next index into graph.edges
  };
  std::vector<Frame> call_stack;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    call_stack.push_back({root, graph.edge_begin[root]});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const std::size_t u = frame.node;
      if (frame.edge < graph.edge_begin[u + 1]) {
        const std::size_t v = graph.edges[frame.edge++].target;
        if (index[v] == kNone) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = true;
          call_stack.push_back({v, graph.edge_begin[v]});
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
    for (const ReachEdge& e : graph.out_edges(u)) {
      if (out.component[u] != out.component[e.target]) {
        out.bottom[out.component[u]] = false;
      }
    }
  }
  return out;
}

}  // namespace petri
}  // namespace ppsc
