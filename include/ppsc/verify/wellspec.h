// Well-specification and predicate extraction (the decision problem the
// introduction recalls is as hard as Petri-net reachability in
// general; on bounded inputs the library decides it exactly).
//
// A protocol is *well-specified* on an input iff every fair execution
// from the initial configuration stabilizes to the same output
// consensus -- equivalently (under population-protocol fairness, and
// by the finiteness conservation gives): every bottom SCC of the
// reachability graph is output-unanimous, and all bottom SCCs agree on
// the same value. Unlike verify/stable.h this checker is *not* told a
// predicate: it extracts the computed value per input, so the caller
// can compare the extracted truth table against an intended predicate
// (bench E16) or feed inputs nobody hand-picked.
//
// Conventions:
//
//  * The empty population (leaderless protocol, all-zero input)
//    computes 0: zero agents never witness output 1, and the verdict
//    must be definite for the truth table to be total. This composes
//    with verify/stable.h's vacuous-pass convention -- an empty
//    population is consistent with any predicate there, and extracts
//    false here.
//  * value == std::nullopt iff the input is not well-specified (some
//    bottom SCC mixes outputs, or two bottom SCCs disagree); verified()
//    is true iff every checked input has a definite value.
//  * Options are verify/stable.h's CheckOptions: exceeding its
//    max_configs cap throws rather than guessing.

#ifndef PPSC_VERIFY_WELLSPEC_H
#define PPSC_VERIFY_WELLSPEC_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "verify/stable.h"

namespace ppsc {
namespace verify {

struct WellSpecVerdict {
  std::vector<core::Count> input;
  // The extracted consensus; nullopt when the outcome depends on the
  // schedule (not well-specified on this input).
  std::optional<bool> value;
  std::size_t reachable_configs = 0;
  // First obstruction, empty when a consensus exists.
  std::string detail;

  bool ok() const { return value.has_value(); }
};

struct WellSpecResult {
  std::vector<WellSpecVerdict> verdicts;

  bool verified() const {
    for (const WellSpecVerdict& v : verdicts) {
      if (!v.ok()) return false;
    }
    return true;
  }
};

// Extracts the consensus for a single input vector.
WellSpecVerdict classify_input(const core::Protocol& protocol,
                               const std::vector<core::Count>& input,
                               const CheckOptions& options = {});

// Checks every input vector in [0, bound]^arity.
WellSpecResult check_well_specification_up_to(
    const core::Protocol& protocol, core::Count bound,
    const CheckOptions& options = {});

}  // namespace verify
}  // namespace ppsc

#endif  // PPSC_VERIFY_WELLSPEC_H
