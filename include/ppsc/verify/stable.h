// Exhaustive stable-computation checker (the Section 2 semantics).
//
// A protocol stably computes a predicate phi on input x iff every fair
// execution from the initial configuration reaches, and never leaves,
// configurations in which all agents output phi(x). Under the standard
// population-protocol fairness this is equivalent to: every bottom SCC
// of the (finite, by conservation) reachability graph consists solely
// of configurations with unanimous output phi(x).
//
// check_up_to materializes the full reachability graph for every input
// vector in [0, bound]^arity and checks exactly that condition, so a
// "verified" verdict is a machine-checked proof for those inputs. The
// inputs are checked in parallel (map_points below); the verdicts come
// back in odometer order, the same for any thread count.

#ifndef PPSC_VERIFY_STABLE_H
#define PPSC_VERIFY_STABLE_H

#include <cstddef>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "petri/reachability.h"
#include "util/parallel.h"

namespace ppsc {
namespace verify {

struct Verdict {
  std::vector<core::Count> input;
  bool ok = false;
  // Size of the reachability graph explored for this input (1 for the
  // empty population, which is vacuously correct).
  std::size_t reachable_configs = 0;
  // Human-readable description of the first failure, empty when ok.
  std::string detail;
};

struct CheckResult {
  std::vector<Verdict> verdicts;

  bool verified() const {
    for (const Verdict& v : verdicts) {
      if (!v.ok) return false;
    }
    return true;
  }
};

struct CheckOptions {
  // Abort (throwing std::runtime_error) if a single input's reachability
  // graph exceeds this many configurations.
  std::size_t max_configs = 5000000;
};

// Checks every input vector in [0, bound]^arity.
CheckResult check_up_to(const core::Protocol& protocol,
                        const core::Predicate& predicate, core::Count bound,
                        const CheckOptions& options = {});

// Checks a single input vector.
Verdict check_input(const core::Protocol& protocol,
                    const core::Predicate& predicate,
                    const std::vector<core::Count>& input,
                    const CheckOptions& options = {});

// The bottom-SCC pass check_input and classify_input (wellspec.h)
// share: one initial configuration's reachability graph, its SCCs, and
// each SCC's output consensus: -1 not bottom, 0 or 1 when every agent
// of every configuration in the SCC outputs that value, 2 when mixed.
struct BottomSccs {
  petri::ReachabilityGraph graph;
  petri::SccDecomposition scc;
  std::vector<int> consensus;
};

// Explores `initial` (a non-empty population) in protocol.net(),
// decomposes the graph into SCCs and reads each bottom SCC's consensus,
// under the spans verify.explore / verify.scc / verify.consensus. A
// graph past `max_configs` configurations throws std::runtime_error
// "<caller>: reachability graph from <initial> exceeds ...", naming the
// input that outgrew the budget and how far the exploration got.
BottomSccs bottom_sccs(const core::Protocol& protocol,
                       const core::Config& initial, std::size_t max_configs,
                       const char* caller);

// The odometer of check_up_to, check_well_specification_up_to and
// minimal_effective_h's probe box: visits [0, bound]^dimension from the
// origin, first coordinate fastest, until `visit` returns false. Point
// is a vector-like type whose Point(dimension) is the all-zero point
// (std::vector<core::Count>, petri::Config).
template <typename Point, typename Visit>
void for_each_point(std::size_t dimension, core::Count bound, Visit visit) {
  Point point(dimension);
  while (visit(std::as_const(point))) {
    std::size_t dim = 0;
    while (dim < dimension && point[dim] == bound) {
      point[dim] = 0;
      ++dim;
    }
    if (dim == dimension) return;
    ++point[dim];
  }
}

// check_up_to's and check_well_specification_up_to's sweep: visit(point)
// for every point of [0, bound]^dimension, returned in for_each_point's
// order; Result carries the point's reachable_configs. Points run from
// the last one (the largest population) down, alone on the calling
// thread, until a point's graph holds at least half as many configs as
// the one before it; the points below it then run through
// util::parallel_for. The largest graph thus never overlaps another
// one, and while graphs shrink by more than half per point the points
// left hold fewer configs than the one just explored, so the pool
// would gain little and its workers' allocator arenas would keep the
// pages of mid-size graphs (docs/verification.md has the peak-RSS
// measurements). If visits throw, the lowest-index exception is
// rethrown: the one the serial loop would throw.
template <typename Result, typename Visit>
std::vector<Result> map_points(std::size_t dimension, core::Count bound,
                               Visit visit) {
  std::vector<std::vector<core::Count>> points;
  for_each_point<std::vector<core::Count>>(
      dimension, bound, [&points](const std::vector<core::Count>& point) {
        points.push_back(point);
        return true;
      });
  std::vector<Result> results(points.size());
  std::size_t rest = points.size();  // points [0, rest) are left
  std::size_t above = 0;             // configs of the point above
  std::exception_ptr error;
  while (rest > 0) {
    --rest;
    try {
      results[rest] = visit(points[rest]);
    } catch (...) {
      error = std::current_exception();
      break;
    }
    const std::size_t configs = results[rest].reachable_configs;
    if (above > 0 && 2 * configs >= above) break;
    above = configs;
  }
  // parallel_for's exception, if any, comes from below every point run
  // alone, so it is the lower one.
  util::parallel_for(
      rest, [&](std::size_t i) { results[i] = visit(points[i]); });
  if (error) std::rethrow_exception(error);
  return results;
}

}  // namespace verify
}  // namespace ppsc

#endif  // PPSC_VERIFY_STABLE_H
