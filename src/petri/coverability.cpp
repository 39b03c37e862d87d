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

// True iff t puts tokens on a place m marks. Otherwise m - delta_t >= m
// on supp(m), so t's predecessor is >= m, and the basis always holds
// an element <= m (m itself, or one that evicted it) that dominates it.
bool produces_on(const PetriNet& net, std::size_t t, const Config& m) {
  for (const Arc& arc : net.delta(t)) {
    if (arc.count > 0 && m[arc.place] > 0) return true;
  }
  return false;
}

// Support signature: bit p % 64 is set iff some place of that residue
// is nonzero. x >= y implies supp(y) within supp(x), hence
// sig(y) & ~sig(x) == 0; the fold onto 64 bits only weakens this
// necessary condition, so it prefilters covers() exactly.
std::uint64_t signature(const Config& m) {
  std::uint64_t sig = 0;
  for (std::size_t p = 0; p < m.size(); ++p) {
    if (m[p] != 0) sig |= std::uint64_t{1} << (p % 64);
  }
  return sig;
}

// A marking of the basis or the work queue beside its signature.
struct Element {
  explicit Element(Config m) : marking(std::move(m)), sig(signature(marking)) {}
  Config marking;
  std::uint64_t sig;
};

// x >= y, deciding by signature first and counting each covers() call.
bool covers(const Element& x, const Element& y, std::uint64_t& comparisons) {
  if ((y.sig & ~x.sig) != 0) return false;
  ++comparisons;
  return x.marking.covers(y.marking);
}

}  // namespace

std::vector<Config> backward_basis(const PetriNet& net, const Config& target,
                                   std::size_t max_basis,
                                   BackwardBasisStats* stats) {
  if (target.size() != net.num_states()) {
    throw std::invalid_argument("backward_basis: target dimension mismatch");
  }
  if (std::any_of(target.begin(), target.end(),
                  [](Count k) { return k < 0; })) {
    throw std::invalid_argument("backward_basis: negative target count");
  }
  obs::ScopedSpan span("coverability", "petri");
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  const bool obs_on = registry.enabled();
  BackwardBasisStats local;
  // Eviction is a stable remove_if, so the basis keeps insertion order.
  std::vector<Element> basis{Element(target)};
  std::deque<Element> work{basis.front()};
  // Backward steps and dominance scans interleave per popped marking;
  // chunk spans window them so a trace shows the basis trajectory
  // (args carry the basis size at each window start) without
  // per-iteration events.
  constexpr std::uint64_t kChunkIterations = 512;
  std::optional<obs::ScopedSpan> chunk_span;
  while (!work.empty()) {
    const Element m = std::move(work.front());
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
    if (std::none_of(basis.begin(), basis.end(), [&m](const Element& b) {
          return b.sig == m.sig && b.marking == m.marking;
        })) {
      continue;
    }
    for (std::size_t t = 0; t < net.num_transitions(); ++t) {
      if (!produces_on(net, t, m.marking)) {
        ++local.skipped;
        continue;
      }
      Element pred(backward_step(net, t, m.marking));
      ++local.predecessors;
      if (std::any_of(basis.begin(), basis.end(), [&](const Element& b) {
            return covers(pred, b, local.comparisons);
          })) {
        ++local.pruned_dominated;
        continue;
      }
      const std::size_t before = basis.size();
      basis.erase(std::remove_if(basis.begin(), basis.end(),
                                 [&](const Element& b) {
                                   return covers(b, pred, local.comparisons);
                                 }),
                  basis.end());
      local.evictions += before - basis.size();
      work.push_back(pred);
      basis.push_back(std::move(pred));
      local.basis_peak = std::max(local.basis_peak, basis.size());
      if (basis.size() > max_basis) {
        throw std::runtime_error("backward_basis: basis exceeds max_basis");
      }
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
    registry.add("coverability.skipped", local.skipped);
    registry.add("coverability.pruned_dominated", local.pruned_dominated);
    registry.add("coverability.evictions", local.evictions);
    registry.add("coverability.comparisons", local.comparisons);
    registry.record("coverability.basis_final", local.basis_final);
    registry.record("coverability.basis_peak", local.basis_peak);
  }
  if (stats != nullptr) *stats = local;
  std::vector<Config> markings;
  markings.reserve(basis.size());
  for (Element& b : basis) markings.push_back(std::move(b.marking));
  return markings;
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
