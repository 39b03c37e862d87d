// Census traces: per-state and per-output population censuses sampled
// at geometrically spaced productive-step counts along one run. The
// geometric schedule (powers of two, plus the initial and final
// configurations) keeps traces logarithmic in run length while still
// resolving both the early mixing phase and the late epidemic spread
// the e19 profiles visualize.

#ifndef PPSC_SIM_TRACE_H
#define PPSC_SIM_TRACE_H

#include <cstdint>
#include <vector>

#include "core/protocol.h"

namespace ppsc {
namespace sim {

struct CensusPoint {
  // Productive interactions executed when the census was taken.
  std::uint64_t step = 0;
  // Agents per state (a copy of the configuration at that step).
  core::Config census;
  // Agents aggregated by their state's output bit (every protocol here
  // has a total two-valued output map).
  core::Count output_zero = 0;
  core::Count output_one = 0;
};

struct CensusTrace {
  // The run reached silence within the step budget.
  bool converged = false;
  // Productive interactions executed in total.
  std::uint64_t total_steps = 0;
  // Censuses at steps 0, 1, 2, 4, 8, ... and at the final step.
  std::vector<CensusPoint> points;
};

// Runs the protocol on `input` (the one-shard agent-array kernel when
// the protocol compiles to a PairRuleTable, the census sampler
// otherwise) for at most `max_steps` productive interactions,
// recording censuses on the geometric schedule: each run(next_sample)
// stops exactly at the next sample point.
CensusTrace record_census_trace(const core::Protocol& protocol,
                                const std::vector<core::Count>& input,
                                std::uint64_t max_steps, std::uint64_t seed);

}  // namespace sim
}  // namespace ppsc

#endif  // PPSC_SIM_TRACE_H
