#include "petri/reachability.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"

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

// Adds `delta` to `config` in place and returns the new hash, given
// `hash`, the old one: only the terms of the delta's places change.
std::uint64_t apply(util::Span<Arc> delta, Count* config, std::uint64_t hash) {
  for (const Arc& arc : delta) {
    const Count before = config[arc.place];
    config[arc.place] = before + arc.count;
    hash += ConfigHash::term(arc.place,
                             static_cast<std::uint64_t>(config[arc.place])) -
            ConfigHash::term(arc.place, static_cast<std::uint64_t>(before));
  }
  return hash;
}

void revert(util::Span<Arc> delta, Count* config) {
  for (const Arc& arc : delta) config[arc.place] -= arc.count;
}

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
    // A frontier of kBatch heads or more is expanded kBatch heads at a
    // time, resolved kTaskHeads heads per pool index (measured in
    // docs/verification.md).
    constexpr std::size_t kBatch = 512;
    constexpr std::size_t kTaskHeads = 16;
    constexpr std::size_t kTasks = kBatch / kTaskHeads;
    static_assert(kBatch % kTaskHeads == 0, "tasks split a batch evenly");
    // One resolve task's buffers: the enabled list, with room for every
    // transition so it never reallocates; the head's counts, copied out
    // because the arena may reallocate while successors are appended
    // (each successor is built in place by applying a transition's delta
    // and reverting it afterwards); and the out-edges of the task's
    // heads, back to back. The edge buffer only grows, so after the
    // first batches no head allocates.
    struct Task {
      std::vector<std::size_t> enabled;
      std::vector<Count> next;
      std::vector<ReachEdge> edges;
    };
    // Writes node `head`'s out-edges to task.edges from `first` on,
    // growing the buffer to max(2 x size, needed) when they do not fit,
    // and returns their count. With `lookup`, a target is the id its
    // node has in the table as it stands; otherwise, and for a node not
    // there, it is kEmpty.
    const auto resolve = [&](std::size_t head, Task& task, std::size_t first,
                             bool lookup,
                             std::uint64_t& checks) -> std::uint32_t {
      Count* const next = task.next.data();
      std::copy_n(graph.counts.data() + head * d, d, next);
      checks = net.enabled_transitions(ConfigView(next, d), task.enabled);
      const std::size_t needed = first + task.enabled.size();
      if (needed > task.edges.size()) {
        task.edges.resize(std::max(2 * task.edges.size(), needed));
      }
      ReachEdge* out = task.edges.data() + first;
      for (const std::size_t t : task.enabled) {
        std::uint32_t target = InternTable::kEmpty;
        if (lookup) {
          const std::uint64_t h =
              apply(net.delta(t), next, graph.hashes[head]);
          std::size_t slot = 0;
          std::uint64_t probed = 0;
          target = table.find(next, h, slot, probed);
          revert(net.delta(t), next);
        }
        *out++ = {target, static_cast<std::uint32_t>(t)};
      }
      return static_cast<std::uint32_t>(task.enabled.size());
    };
    // A batch head as the resolve leaves it: head i's out-edges are
    // tasks[i / task_heads].edges[first, first + count).
    struct BatchHead {
      std::size_t first;
      std::uint32_t count;
      std::uint64_t checks;
    };
    // Every buffer is the caller's and reused from batch to batch. A pool
    // thread may grow its task's edge buffer, to at most kTaskHeads heads'
    // edges: bounded by the net's transitions, not by the graph.
    std::vector<BatchHead> heads;
    std::vector<Task> tasks;
    for (std::size_t first_head = 0;
         first_head < graph.size() && !graph.stopped;) {
      const std::size_t batch =
          graph.size() - first_head < kBatch || util::runs_inline() ? 1
                                                                    : kBatch;
      const std::size_t num_tasks = batch > 1 ? kTasks : 1;
      const std::size_t task_heads = batch > 1 ? kTaskHeads : 1;
      while (tasks.size() < num_tasks) {
        Task task{{}, std::vector<Count>(d),
                  std::vector<ReachEdge>(kTaskHeads * 16)};
        task.enabled.reserve(net.num_transitions());
        tasks.push_back(std::move(task));
      }
      heads.resize(batch);
      // Resolve: enabled transitions and, on a batch of several heads,
      // batch-start lookups, read-only on the arena and the table.
      const auto resolve_task = [&](std::size_t task) {
        std::size_t first = 0;
        for (std::size_t i = task * task_heads; i < (task + 1) * task_heads;
             ++i) {
          BatchHead& bh = heads[i];
          bh.first = first;
          bh.count = resolve(first_head + i, tasks[task], first, batch > 1,
                             bh.checks);
          first += bh.count;
        }
      };
      if (batch > 1) {
        util::parallel_for(kTasks, resolve_task);
      } else {
        resolve_task(0);
      }
      // Commit, in BFS order on this thread: the head-by-head loop, with
      // the resolve's lookups standing in for the probes that found a
      // node. A target still kEmpty is probed here, since an earlier
      // head of the batch may have interned it since.
      for (std::size_t i = 0; i < batch && !graph.stopped; ++i) {
        const std::size_t head = first_head + i;
        if (head % kChunkNodes == 0 && graph.size() > kChunkNodes) {
          chunk_span.emplace("explore.chunk", "petri");
          chunk_span->arg("head", head);
          chunk_span->arg("frontier", graph.size() - head);
        }
        stats.frontier_peak =
            std::max(stats.frontier_peak, graph.size() - head);
        graph.edge_begin.push_back(graph.edges.size());
        const BatchHead& bh = heads[i];
        const ReachEdge* out = tasks[i / task_heads].edges.data() + bh.first;
        stats.enabled_checks += bh.checks;
        Count* const next = tasks[0].next.data();  // the resolve is done
        std::copy_n(graph.counts.data() + head * d, d, next);
        for (std::uint32_t e = 0; e < bh.count; ++e) {
          const ReachEdge edge = out[e];
          std::uint32_t target = edge.target;
          if (target == InternTable::kEmpty) {
            const util::Span<Arc> delta = net.delta(edge.transition);
            const std::uint64_t h = apply(delta, next, graph.hashes[head]);
            target = intern(next, h, graph.size() < limits.max_nodes, head,
                            edge.transition);
            revert(delta, next);
            if (target == InternTable::kEmpty) {  // new, but over the budget
              graph.truncated = true;
              continue;
            }
          } else {
            ++stats.probes;
          }
          graph.edges.push_back({target, edge.transition});
          if (graph.stopped) break;
        }
      }
      first_head += batch;
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
