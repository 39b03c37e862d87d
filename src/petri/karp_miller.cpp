#include "petri/karp_miller.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppsc {
namespace petri {

namespace {

Config omega_fire(const PetriNet& net, std::size_t t, const Config& m) {
  Config next = m;
  for (const Arc& arc : net.delta(t)) {
    if (next[arc.place] != kOmega) next[arc.place] += arc.count;
  }
  return next;
}

}  // namespace

bool KarpMillerResult::covers(const Config& target) const {
  for (const KarpMillerNode& node : nodes) {
    if (node.marking.covers(target)) return true;
  }
  return false;
}

std::vector<bool> KarpMillerResult::finite_places(std::size_t node) const {
  const Config& m = nodes[node].marking;
  std::vector<bool> keep(m.size());
  for (std::size_t p = 0; p < m.size(); ++p) keep[p] = m[p] != kOmega;
  return keep;
}

KarpMillerResult karp_miller(const PetriNet& net, const Config& root,
                             std::size_t max_nodes) {
  if (root.size() != net.num_states()) {
    throw std::invalid_argument("karp_miller: root dimension mismatch");
  }
  obs::ScopedSpan span("karp_miller", "petri");
  std::uint64_t accelerations = 0;
  KarpMillerResult result;
  std::unordered_map<Config, std::size_t, ConfigHash> seen;
  result.nodes.push_back({root, KarpMillerResult::kNoParent, 0});
  seen.emplace(root, 0);
  constexpr std::size_t kChunkNodes = 1024;
  std::optional<obs::ScopedSpan> chunk_span;
  std::vector<std::size_t> enabled;
  for (std::size_t head = 0; head < result.nodes.size(); ++head) {
    if (head % kChunkNodes == 0 && result.nodes.size() > kChunkNodes) {
      chunk_span.emplace("karp_miller.chunk", "petri");
      chunk_span->arg("head", head);
      chunk_span->arg("nodes", result.nodes.size());
    }
    // Copy: nodes may reallocate while we append successors.
    // NOLINTNEXTLINE(performance-unnecessary-copy-initialization)
    const Config current = result.nodes[head].marking;
    net.enabled_transitions(current, enabled);
    for (const std::size_t t : enabled) {
      Config next = omega_fire(net, t, current);
      // Accelerate against the ancestor chain until a fixpoint: each
      // strictly dominated ancestor promotes its strictly smaller
      // places to omega, which may unlock further ancestors.
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t at = head;; at = result.nodes[at].parent) {
          const Config& ancestor = result.nodes[at].marking;
          if (next.covers(ancestor) && next != ancestor) {
            // Under covers, every finite place of next is also finite
            // in the ancestor.
            for (std::size_t p = 0; p < next.size(); ++p) {
              if (next[p] != kOmega && ancestor[p] < next[p]) {
                next[p] = kOmega;
                ++accelerations;
                changed = true;
              }
            }
          }
          if (at == 0 || result.nodes[at].parent ==
                             KarpMillerResult::kNoParent) {
            break;
          }
        }
      }
      if (seen.count(next)) continue;
      if (result.nodes.size() >= max_nodes) {
        result.truncated = true;
        continue;
      }
      seen.emplace(next, result.nodes.size());
      result.nodes.push_back({std::move(next), head, t});
    }
  }
  chunk_span.reset();
  span.arg("nodes", result.nodes.size());
  span.arg("accelerations", accelerations);
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("karp_miller.nodes", result.nodes.size());
    registry.add("karp_miller.accelerations", accelerations);
    registry.add("karp_miller.truncated", result.truncated ? 1 : 0);
  }
  return result;
}

}  // namespace petri
}  // namespace ppsc
