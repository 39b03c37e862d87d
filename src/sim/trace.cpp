#include "sim/trace.h"

#include <algorithm>

#include "obs/trace.h"
#include "sim/census.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"

namespace ppsc {
namespace sim {

namespace {

CensusPoint make_point(const core::Protocol& protocol, std::uint64_t step,
                       const core::Config& census) {
  CensusPoint point;
  point.step = step;
  point.census = census;
  for (std::size_t q = 0; q < census.size(); ++q) {
    (protocol.output(q) ? point.output_one : point.output_zero) += census[q];
  }
  return point;
}

}  // namespace

CensusTrace record_census_trace(const core::Protocol& protocol,
                                const std::vector<core::Count>& input,
                                std::uint64_t max_steps, std::uint64_t seed) {
  CensusTrace trace;
  obs::ScopedSpan span("sim.trace", "sim");
  span.arg("seed", seed);
  const core::Config initial = protocol.initial_config(input);
  const std::optional<PairRuleTable> table = PairRuleTable::build(protocol);

  // Both schedulers expose the same run()/silent()/steps()/census()
  // surface, so one driver serves the agent-array kernel and the census
  // sampler. Each run() stops exactly at the next power of two, where
  // the census is recorded, plus the initial and final configurations.
  const auto drive = [&](auto& simulator) {
    trace.points.push_back(make_point(protocol, 0, simulator.census()));
    std::uint64_t next_sample = 1;
    while (!simulator.silent() && simulator.steps() < max_steps) {
      if (simulator.run(std::min(next_sample, max_steps)) == next_sample) {
        trace.points.push_back(
            make_point(protocol, next_sample, simulator.census()));
        next_sample *= 2;
      }
    }
    trace.converged = simulator.silent();
    trace.total_steps = simulator.steps();
    if (trace.points.back().step != trace.total_steps) {
      trace.points.push_back(
          make_point(protocol, trace.total_steps, simulator.census()));
    }
    // Both schedulers publish their run totals (sim.agent.* /
    // sim.census.*), so census traces contribute to bench reports the
    // same way sweep runs do.
    simulator.publish_metrics();
  };

  if (table) {
    ShardedOptions one_shard;
    one_shard.shards = 1;
    ShardedSimulator simulator(*table, initial, seed, one_shard);
    drive(simulator);
  } else {
    CensusSimulator simulator(protocol.net(), initial, seed);
    drive(simulator);
  }
  span.arg("steps", trace.total_steps);
  return trace;
}

}  // namespace sim
}  // namespace ppsc
