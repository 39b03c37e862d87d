#include "solver/diophantine.h"

#include <cmath>
#include <deque>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/config.h"

namespace ppsc {
namespace solver {

namespace {

// A x for nonnegative x, evaluated row by row.
std::vector<std::int64_t> residual(const HomogeneousSystem& system,
                                   const std::vector<std::uint64_t>& x) {
  std::vector<std::int64_t> value(system.rows.size(), 0);
  for (std::size_t r = 0; r < system.rows.size(); ++r) {
    std::int64_t sum = 0;
    for (std::size_t v = 0; v < system.num_vars; ++v) {
      sum += system.rows[r][v] * static_cast<std::int64_t>(x[v]);
    }
    value[r] = sum;
  }
  return value;
}

bool is_zero(const std::vector<std::int64_t>& value) {
  for (std::int64_t entry : value) {
    if (entry != 0) return false;
  }
  return true;
}

// Componentwise x >= y.
bool dominates(const std::vector<std::uint64_t>& x,
               const std::vector<std::uint64_t>& y) {
  for (std::size_t v = 0; v < x.size(); ++v) {
    if (x[v] < y[v]) return false;
  }
  return true;
}

struct VectorHash {
  std::size_t operator()(const std::vector<std::uint64_t>& x) const {
    // The petri configuration hash (position-salted sum of mixed
    // entries): entries are tiny integers and need spreading.
    std::uint64_t h = 0;
    for (std::size_t v = 0; v < x.size(); ++v) {
      h += petri::ConfigHash::term(v, x[v]);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

HilbertBasisResult hilbert_basis(const HomogeneousSystem& system,
                                 const HilbertOptions& options) {
  for (const auto& row : system.rows) {
    if (row.size() != system.num_vars) {
      throw std::invalid_argument("hilbert_basis: row size != num_vars");
    }
  }
  obs::ScopedSpan span("solver.hilbert", "solver");

  HilbertBasisResult result;
  std::uint64_t pruned = 0;
  // Precomputed column images A e_i, for the descent criterion.
  std::vector<std::vector<std::int64_t>> columns(system.num_vars);
  for (std::size_t v = 0; v < system.num_vars; ++v) {
    std::vector<std::uint64_t> unit(system.num_vars, 0);
    unit[v] = 1;
    columns[v] = residual(system, unit);
  }

  std::deque<std::vector<std::uint64_t>> frontier;
  std::unordered_set<std::vector<std::uint64_t>, VectorHash> seen;
  for (std::size_t v = 0; v < system.num_vars; ++v) {
    std::vector<std::uint64_t> unit(system.num_vars, 0);
    unit[v] = 1;
    seen.insert(unit);
    frontier.push_back(std::move(unit));
  }

  bool capped = false;
  while (!frontier.empty()) {
    if (result.nodes >= options.max_nodes) {
      capped = true;
      break;
    }
    ++result.nodes;
    const std::vector<std::uint64_t> current = std::move(frontier.front());
    frontier.pop_front();

    // Anything dominating a known solution is non-minimal (solutions
    // found after `current` was enqueued included).
    bool covered = false;
    for (const auto& element : result.basis) {
      if (dominates(current, element)) {
        covered = true;
        break;
      }
    }
    if (covered) {
      ++pruned;
      continue;
    }

    const std::vector<std::int64_t> value = residual(system, current);
    if (is_zero(value)) {
      result.basis.push_back(current);
      continue;
    }

    // Contejean-Devie descent: grow only in directions whose column
    // strictly reduces <A t, A t> -- complete, and terminating by
    // Dickson's lemma plus the domination pruning above.
    for (std::size_t v = 0; v < system.num_vars; ++v) {
      std::int64_t dot = 0;
      for (std::size_t r = 0; r < system.rows.size(); ++r) {
        dot += value[r] * columns[v][r];
      }
      if (dot >= 0) continue;
      std::vector<std::uint64_t> next = current;
      next[v] += 1;
      if (norm_l1(next) > options.max_norm) {
        capped = true;
        continue;
      }
      bool next_covered = false;
      for (const auto& element : result.basis) {
        if (dominates(next, element)) {
          next_covered = true;
          break;
        }
      }
      if (next_covered) {
        ++pruned;
        continue;
      }
      if (seen.insert(next).second) frontier.push_back(std::move(next));
    }
  }
  result.complete = !capped;

  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("solver.hilbert.nodes", result.nodes);
    registry.add("solver.hilbert.basis", result.basis.size());
    registry.add("solver.hilbert.pruned", pruned);
    if (capped) registry.add("solver.hilbert.incomplete", 1);
  }
  return result;
}

std::uint64_t norm_l1(const std::vector<std::uint64_t>& x) {
  std::uint64_t total = 0;
  for (std::uint64_t entry : x) total += entry;
  return total;
}

double log2_pottier_bound(const HomogeneousSystem& system) {
  std::uint64_t sum = 0;
  for (const auto& row : system.rows) {
    std::uint64_t norm = 0;
    for (std::int64_t coefficient : row) {
      const std::uint64_t magnitude = static_cast<std::uint64_t>(
          coefficient < 0 ? -coefficient : coefficient);
      if (magnitude > norm) norm = magnitude;
    }
    sum += norm;
  }
  return static_cast<double>(system.num_vars) *
         std::log2(2.0 + static_cast<double>(sum));
}

}  // namespace solver
}  // namespace ppsc
