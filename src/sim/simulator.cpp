#include "sim/simulator.h"

#include "sim/census.h"

namespace ppsc {
namespace sim {

OutputSummary summarize_output(const core::Protocol& protocol,
                               const core::Config& config) {
  OutputSummary summary;
  for (std::size_t q = 0; q < config.size(); ++q) {
    if (config[q] == 0) continue;
    if (protocol.output(q)) {
      summary.has_one = true;
    } else {
      summary.has_zero = true;
    }
  }
  return summary;
}

SilenceRun run_to_silence(const core::Protocol& protocol,
                          const std::vector<core::Count>& input,
                          const RunOptions& options) {
  CensusSimulator simulator(protocol.net(), protocol.initial_config(input),
                            options.seed);
  SilenceRun run;
  run.steps = simulator.run(options.max_steps);
  run.silent = simulator.silent();
  run.final_config = simulator.census();
  run.final_output = summarize_output(protocol, run.final_config);
  simulator.publish_metrics();
  return run;
}

// measure_convergence lives in src/sim/parallel.cpp: it is the
// one-thread case of the parallel sweep runner.

}  // namespace sim
}  // namespace ppsc
