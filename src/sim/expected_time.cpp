#include "sim/expected_time.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <optional>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/config.h"
#include "petri/petri_net.h"
#include "petri/reachability.h"
#include "sim/weights.h"

namespace ppsc {
namespace sim {

namespace {

// Largest dense block the per-SCC Gaussian elimination will attempt;
// protocols whose chains have bigger strongly-connected pockets are
// reported uncomputed rather than silently slow.
constexpr std::size_t kMaxDenseComponent = 2048;

// Instantiation count of transition `t` in `config`: the product of
// binomials C(config[p], pre[p]) over t's sparse pre list, the same
// weight law both schedulers sample with (sim/weights.h holds the
// shared per-place factor).
long double instance_weight(const petri::PetriNet& net, std::size_t t,
                            petri::ConfigView config) {
  long double weight = 1.0L;
  for (const petri::Arc& arc : net.pre(t)) {
    const long double factor =
        binomial_instances<long double>(config[arc.place], arc.count);
    if (factor == 0.0L) return 0.0L;
    weight *= factor;
  }
  return weight;
}

// Solves A x = b in place by Gaussian elimination with partial
// pivoting; returns false when a pivot falls below the singularity
// threshold relative to the matrix scale.
bool solve_dense(std::vector<std::vector<long double>>& a,
                 std::vector<long double>& b,
                 std::vector<long double>& x) {
  const std::size_t m = b.size();
  long double scale = 0.0L;
  for (const auto& row : a) {
    for (long double v : row) scale = std::max(scale, std::abs(v));
  }
  const long double threshold = 1e-12L * std::max(1.0L, scale);
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < m; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) <= threshold) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < m; ++row) {
      const long double factor = a[row][col] / a[col][col];
      if (factor == 0.0L) continue;
      for (std::size_t k = col; k < m; ++k) {
        a[row][k] -= factor * a[col][k];
      }
      b[row] -= factor * b[col];
    }
  }
  x.assign(m, 0.0L);
  for (std::size_t col = m; col-- > 0;) {
    long double sum = b[col];
    for (std::size_t k = col + 1; k < m; ++k) {
      sum -= a[col][k] * x[k];
    }
    x[col] = sum / a[col][col];
  }
  return true;
}

}  // namespace

ExpectedTimeResult expected_interactions_to_silence(
    const core::Protocol& protocol, const std::vector<core::Count>& input,
    std::size_t max_configs) {
  obs::ScopedTimer timer("expected_time");
  obs::ScopedSpan span("expected_time", "sim");
  ExpectedTimeResult result;
  // Every exit path reports the same summary counters; the lambda
  // keeps the early returns (truncated / oversized block / singular)
  // from silently skipping the publish.
  const auto publish = [&result]() {
    obs::MetricRegistry& registry = obs::MetricRegistry::global();
    if (!registry.enabled()) return;
    registry.add("expected_time.configs", result.reachable_configs);
    registry.add("expected_time.sccs", result.sccs);
    registry.add("expected_time.pivots", result.pivots);
    registry.add("expected_time.truncated", result.truncated ? 1 : 0);
    registry.add("expected_time.uncomputed", result.computed ? 0 : 1);
    if (result.largest_scc > 0) {
      registry.record("expected_time.largest_scc", result.largest_scc);
    }
  };
  const petri::PetriNet& net = protocol.net();
  petri::ExploreLimits limits;
  limits.max_nodes = max_configs;
  const petri::ReachabilityGraph graph =
      petri::explore(net, {protocol.initial_config(input)}, limits);
  result.reachable_configs = graph.size();
  if (graph.truncated) {
    result.truncated = true;
    publish();
    return result;
  }

  const std::size_t n = graph.size();
  // Per-edge jump probabilities of the productive-step chain. The
  // graph is untruncated, so every enabled transition of every node
  // has its edge and the per-node weights sum to W(c).
  // edge_probability[e] belongs to graph.edges[e] (the CSR layout).
  std::vector<long double> edge_probability(graph.edges.size());
  {
    obs::ScopedSpan weights_span("expected_time.weights", "sim");
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t first = graph.edge_begin[i];
      const std::size_t last = graph.edge_begin[i + 1];
      long double total = 0.0L;
      for (std::size_t e = first; e < last; ++e) {
        const long double w =
            instance_weight(net, graph.edges[e].transition, graph.node(i));
        edge_probability[e] = w;
        total += w;
      }
      for (std::size_t e = first; e < last; ++e) edge_probability[e] /= total;
    }
  }

  const petri::SccDecomposition scc = [&graph] {
    obs::ScopedSpan scc_span("expected_time.scc", "sim");
    return petri::scc_decompose(graph);
  }();
  std::vector<std::vector<std::size_t>> members(scc.count);
  for (std::size_t i = 0; i < n; ++i) {
    members[scc.component[i]].push_back(i);
  }
  result.sccs = scc.count;
  for (const auto& component : members) {
    result.largest_scc = std::max(result.largest_scc, component.size());
  }

  // Tarjan numbers components in reverse topological order: every edge
  // leaving component c lands in a component with a smaller id, so a
  // single ascending pass sees all successors solved.
  std::vector<long double> expected(n, 0.0L);
  std::vector<std::size_t> local(n, 0);
  for (std::size_t c = 0; c < scc.count; ++c) {
    const std::vector<std::size_t>& nodes = members[c];
    if (nodes.size() == 1 && graph.out_edges(nodes[0]).empty()) {
      expected[nodes[0]] = 0.0L;  // silent, absorbing
      continue;
    }
    const std::size_t m = nodes.size();
    if (m > kMaxDenseComponent) {
      publish();
      return result;
    }
    // Solve spans only for nontrivial blocks: a chain can have tens of
    // thousands of singleton SCCs, and their "solves" are a few adds.
    std::optional<obs::ScopedSpan> solve_span;
    if (m >= 2) {
      solve_span.emplace("expected_time.solve", "sim");
      solve_span->arg("scc_size", m);
    }
    result.pivots += m;
    for (std::size_t li = 0; li < m; ++li) local[nodes[li]] = li;
    // Row li: E_i - sum_{j in C} p_ij E_j = 1 + sum_{j notin C} p_ij E_j.
    std::vector<std::vector<long double>> a(m,
                                            std::vector<long double>(m, 0.0L));
    std::vector<long double> b(m, 1.0L);
    for (std::size_t li = 0; li < m; ++li) {
      const std::size_t i = nodes[li];
      a[li][li] = 1.0L;
      for (std::size_t e = graph.edge_begin[i]; e < graph.edge_begin[i + 1];
           ++e) {
        const std::size_t j = graph.edges[e].target;
        const long double p = edge_probability[e];
        if (scc.component[j] == c) {
          a[li][local[j]] -= p;
        } else {
          assert(scc.component[j] < c);
          b[li] += p * expected[j];
        }
      }
    }
    std::vector<long double> x;
    if (!solve_dense(a, b, x)) {  // silence unreachable
      publish();
      return result;
    }
    for (std::size_t li = 0; li < m; ++li) expected[nodes[li]] = x[li];
  }

  result.computed = true;
  result.expected_steps = static_cast<double>(expected[0]);
  publish();
  return result;
}

}  // namespace sim
}  // namespace ppsc
