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
// "verified" verdict is a machine-checked proof for those inputs.

#ifndef PPSC_VERIFY_STABLE_H
#define PPSC_VERIFY_STABLE_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/protocol.h"
#include "petri/reachability.h"

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
// "<caller>: reachability graph exceeds ..." explaining how far the
// exploration got.
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

}  // namespace verify
}  // namespace ppsc

#endif  // PPSC_VERIFY_STABLE_H
