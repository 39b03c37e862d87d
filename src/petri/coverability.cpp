#include "petri/coverability.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/reachability.h"

namespace ppsc {
namespace petri {

namespace {

// Minimal marking that enables t and reaches >= m after firing it:
// componentwise max(pre_t, m - delta_t). Only the places on t's arcs
// differ from m (m is a marking, so max(0, m) = m elsewhere).
Config backward_step(const PetriNet& net, std::size_t t, const Config& m) {
  Config pred = m;
  for (const Arc& arc : net.delta(t)) {
    pred[arc.place] = std::max<Count>(0, m[arc.place] - arc.count);
  }
  for (const Arc& arc : net.pre(t)) {
    pred[arc.place] = std::max(pred[arc.place], arc.count);
  }
  return pred;
}

bool dominated(const std::vector<Config>& basis, const Config& m,
               std::uint64_t& comparisons) {
  for (const Config& b : basis) {
    ++comparisons;
    if (m.covers(b)) return true;
  }
  return false;
}

}  // namespace

std::vector<Config> backward_basis(const PetriNet& net, const Config& target,
                                   std::size_t max_basis,
                                   BackwardBasisStats* stats) {
  if (target.size() != net.num_states()) {
    throw std::invalid_argument("backward_basis: target dimension mismatch");
  }
  if (std::any_of(target.raw().begin(), target.raw().end(),
                  [](Count k) { return k < 0; })) {
    throw std::invalid_argument("backward_basis: negative target count");
  }
  obs::ScopedSpan span("coverability", "petri");
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  const bool obs_on = registry.enabled();
  BackwardBasisStats local;
  std::vector<Config> basis{target};
  std::deque<Config> work{target};
  // Backward steps and dominance scans interleave per popped marking;
  // chunk spans window them so a trace shows the basis trajectory
  // (args carry the basis size at each window start) without
  // per-iteration events.
  constexpr std::uint64_t kChunkIterations = 512;
  std::optional<obs::ScopedSpan> chunk_span;
  while (!work.empty()) {
    const Config m = std::move(work.front());
    work.pop_front();
    if (local.iterations % kChunkIterations == 0 &&
        local.iterations + work.size() > kChunkIterations) {
      chunk_span.emplace("coverability.chunk", "petri");
      chunk_span->arg("iteration", local.iterations);
      chunk_span->arg("basis", basis.size());
    }
    ++local.iterations;
    local.basis_size_sum += basis.size();
    // The per-iteration basis trajectory is the e13 scaling story;
    // bucketing it is only worth the map lookup when someone watches.
    if (obs_on) registry.record("coverability.basis_size", basis.size());
    // m may have been pruned by a strictly smaller element meanwhile.
    bool alive = false;
    for (const Config& b : basis) {
      if (b == m) {
        alive = true;
        break;
      }
    }
    if (!alive) continue;
    for (std::size_t t = 0; t < net.num_transitions(); ++t) {
      Config pred = backward_step(net, t, m);
      ++local.predecessors;
      if (dominated(basis, pred, local.comparisons)) {
        ++local.pruned_dominated;
        continue;
      }
      const std::size_t before = basis.size();
      local.comparisons += before;
      basis.erase(std::remove_if(basis.begin(), basis.end(),
                                 [&pred](const Config& b) {
                                   return b.covers(pred);
                                 }),
                  basis.end());
      local.evictions += before - basis.size();
      basis.push_back(pred);
      local.basis_peak = std::max(local.basis_peak, basis.size());
      if (basis.size() > max_basis) {
        throw std::runtime_error("backward_basis: basis exceeds max_basis");
      }
      work.push_back(std::move(pred));
    }
  }
  chunk_span.reset();
  local.basis_final = basis.size();
  local.basis_peak = std::max(local.basis_peak, local.basis_final);
  span.arg("iterations", local.iterations);
  span.arg("basis_final", local.basis_final);
  if (obs_on) {
    registry.add("coverability.iterations", local.iterations);
    registry.add("coverability.predecessors", local.predecessors);
    registry.add("coverability.pruned_dominated", local.pruned_dominated);
    registry.add("coverability.evictions", local.evictions);
    registry.add("coverability.comparisons", local.comparisons);
    registry.record("coverability.basis_final", local.basis_final);
    registry.record("coverability.basis_peak", local.basis_peak);
  }
  if (stats != nullptr) *stats = local;
  return basis;
}

bool coverable(const PetriNet& net, const Config& source, const Config& target,
               std::size_t max_basis) {
  if (source.size() != net.num_states()) {
    throw std::invalid_argument("coverable: source dimension mismatch");
  }
  for (const Config& b : backward_basis(net, target, max_basis)) {
    if (source.covers(b)) return true;
  }
  return false;
}

CoveringWordResult shortest_covering_word(const PetriNet& net,
                                          const Config& source,
                                          const Config& target,
                                          std::size_t max_nodes) {
  if (source.size() != net.num_states() ||
      target.size() != net.num_states()) {
    throw std::invalid_argument(
        "shortest_covering_word: dimension mismatch");
  }
  CoveringWordResult result;
  obs::ScopedSpan span("coverability.word", "petri");
  // BFS discovery order makes the first covering node a shortest one.
  ExploreLimits limits;
  limits.max_nodes = max_nodes;
  const ReachabilityGraph graph =
      explore(net, {source}, limits,
              [&target](ConfigView c) { return c.covers(target); });
  result.stats = graph.stats;
  if (graph.stopped.has_value()) {
    result.word = graph.word_to(*graph.stopped);
  }
  span.arg("explored", result.stats.configs);
  span.arg("found", graph.stopped.has_value() ? 1 : 0);
  return result;
}

}  // namespace petri
}  // namespace ppsc
