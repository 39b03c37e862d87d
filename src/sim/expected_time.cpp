#include "sim/expected_time.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

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
  return expected_interactions_to_silence(
      protocol.net(), protocol.initial_config(input), max_configs);
}

ExpectedTimeResult expected_interactions_to_silence(
    const petri::PetriNet& net, const petri::Config& initial,
    std::size_t max_configs) {
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
  petri::ExploreLimits limits;
  limits.max_nodes = max_configs;
  const petri::ReachabilityGraph graph = petri::explore(net, {initial}, limits);
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
        const long double w = instance_weight<long double>(
            net.pre(graph.edges[e].transition), graph.node(i));
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
  // Component members, CSR: component c's nodes, ascending, are
  // member[member_begin[c], member_begin[c + 1]).
  std::vector<std::size_t> member_begin(scc.count + 1, 0);
  for (std::size_t i = 0; i < n; ++i) ++member_begin[scc.component[i] + 1];
  for (std::size_t c = 0; c < scc.count; ++c) {
    member_begin[c + 1] += member_begin[c];
    result.largest_scc =
        std::max(result.largest_scc, member_begin[c + 1] - member_begin[c]);
  }
  std::vector<std::size_t> member(n);
  {
    std::vector<std::size_t> cursor(member_begin.begin(),
                                    member_begin.end() - 1);
    for (std::size_t i = 0; i < n; ++i) member[cursor[scc.component[i]]++] = i;
  }
  result.sccs = scc.count;

  // Tarjan numbers components in reverse topological order: every edge
  // leaving component c lands in a component with a smaller id, so a
  // single ascending pass sees all successors solved.
  std::vector<long double> expected(n, 0.0L);
  std::vector<std::size_t> local(n, 0);
  for (std::size_t c = 0; c < scc.count; ++c) {
    const std::size_t* nodes = member.data() + member_begin[c];
    const std::size_t m = member_begin[c + 1] - member_begin[c];
    if (m == 1 && graph.out_edges(nodes[0]).empty()) {
      expected[nodes[0]] = 0.0L;  // silent, absorbing
      continue;
    }
    if (m > kMaxDenseComponent) {
      publish();
      return result;
    }
    result.pivots += m;
    if (m == 1) {
      // solve_dense's arithmetic for a 1x1 block, in closed form: the
      // same sums in edge order, the same singularity test, the same
      // division, so E is bit-identical.
      const std::size_t i = nodes[0];
      long double a = 1.0L;
      long double b = 1.0L;
      for (std::size_t e = graph.edge_begin[i]; e < graph.edge_begin[i + 1];
           ++e) {
        const std::size_t j = graph.edges[e].target;
        if (j == i) {
          a -= edge_probability[e];
        } else {
          b += edge_probability[e] * expected[j];
        }
      }
      if (std::abs(a) <= 1e-12L * std::max(1.0L, std::abs(a))) {
        publish();
        return result;
      }
      expected[i] = b / a;
      continue;
    }
    // One span per block of two or more nodes; the singletons above
    // take none (a chain can have tens of thousands of them).
    obs::ScopedSpan solve_span("expected_time.solve", "sim");
    solve_span.arg("scc_size", m);
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
