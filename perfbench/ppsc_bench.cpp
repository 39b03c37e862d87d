// The repository benchmark: two workloads, each running two of four
// jobs (verify-wide, exact-deep, sim-sweep, sim-large) through the
// library's public entry points, every answer checked, end-to-end
// metrics from untraced passes and a per-layer split from traced ones.
// README.md in this directory says why each workload exists and which
// layer metric should move which end-to-end metric; run.py builds and
// runs this.
//
//   ppsc_bench --workload wide-small|deep-large
//              [--seed N] [--seconds S] [--trace 0|1] [--size full|small]
//              [--git-rev REV]
//
// A run builds the workload's inputs several times (setup_s is the
// median), runs one unmeasured warm-up pass over the workload's ops and
// then repeats the pass until --seconds have passed. Each pass is a
// closed batch: every operation starts when the previous one returned,
// and every pass uses the same inputs, so its answers must repeat
// exactly. With --trace 0 the obs registry stays off and the end-to-end
// metrics are totals over all passes (wall_s is the mean pass, the rates
// are total work ÷ total time). With --trace 1 untraced passes
// alternate with traced ones, in which the registry is on and the
// sub-calls of each public call (petri::explore, petri::scc_decompose,
// petri::backward_basis, a one-thread sweep, a one-worker sharded run)
// are re-run and timed on the same input; a layer's self time is its
// public call's time minus those.
//
// Output: one report line (stamp, seed, exact counts, failures), then,
// as the last line, {"correct","attempted","failed","metrics"}. Exit
// code 0 iff the run completed; a wrong answer is reported, not fatal.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/combinators.h"
#include "core/constructions.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/coverability.h"
#include "petri/reachability.h"
#include "sim/expected_time.h"
#include "sim/parallel.h"
#include "sim/scheduler.h"
#include "sim/sharded.h"
#include "util/rng.h"
#include "verify/stable.h"
#include "verify/wellspec.h"

#ifndef PPSC_BENCH_BUILD_TYPE
#define PPSC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using ppsc::core::ConstructedProtocol;
using ppsc::core::Count;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 1;
// Same cap as verify::CheckOptions / WellSpecOptions.
constexpr std::size_t kVerifyMaxConfigs = 5000000;
constexpr std::size_t kExactMaxConfigs = std::size_t{1} << 21;
constexpr std::size_t kCoverMaxBasis = std::size_t{1} << 22;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename F>
double timed(F&& call) {
  const Clock::time_point start = Clock::now();
  call();
  return since(start);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string fmt(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// Input sizes. `full` is the measured benchmark; `small` runs every
// code path in well under a second, for the benchmark's own tests.
struct Sizes {
  // verify-wide: inputs 0..bound of the four Boolean-closure products.
  Count negate_bound, interval_bound, conjunction_bound, disjunction_bound;
  // exact-deep
  Count leaders;         // Example 4.2 with n leaders, inputs 0..2n
  Count unary_agents;    // expected time of unary_counting(4)
  Count belief_agents;   // expected time of threshold_belief(6)
  Count cover_n;         // coverability of "n!" on unary_counting(n)
  // sim-sweep
  Count sweep_agents;    // unary_counting(8), run to silence
  std::size_t sweep_runs;
  Count boundary_n;      // Example 4.2 at x = n-1, n, n+1
  std::size_t reject_runs;
  std::size_t accept_runs;
  std::uint64_t boundary_budget;
  // sim-large
  Count census_agents;   // unary_counting(8), run to silence
  Count shard_agents;    // threshold_belief(80) under a step budget
  std::uint64_t shard_budget;
};

// The census and sharded sizes stay above planned_scheduler's kAuto
// cutoffs (census: >= 2^16 agents, sharded: >= 2^22) at both sizes.
constexpr Sizes kFull{7,      5,   7,   6,  30,      24,           24,
                      11,     1000, 150, 32, 24,     200,          400000,
                      1 << 18, 1 << 24, 30000000};
constexpr Sizes kSmall{4,      3,   4,  3, 4,       8,       8,
                       5,      100, 8,  8, 4,       8,       20000,
                       1 << 16, 1 << 22, 1000000};

// E[productive steps to silence] at the seed commit of this benchmark;
// a solve more than 1e-9 (relative) away from these fails.
std::optional<double> reference_expected_steps(const std::string& family,
                                               Count agents) {
  static const std::map<std::pair<std::string, Count>, double> kReference = {
      {{"unary_counting(4)", 8}, 11.835062500569604},
      {{"unary_counting(4)", 24}, 37.159927427135813},
      {{"threshold_belief(6)", 8}, 27.6278041827326},
      {{"threshold_belief(6)", 24}, 80.923324754917061},
  };
  const auto it = kReference.find({family, agents});
  if (it == kReference.end()) return std::nullopt;
  return it->second;
}

// Failures across a run. An op is one verification input, one
// expected-time solve, one coverability query or one simulation run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;  // the first few, for the report

  void add(std::uint64_t ops, std::uint64_t bad, const std::string& what) {
    attempted += ops;
    failed += bad;
    if (bad > 0 && reasons.size() < 8) reasons.push_back(what);
  }
};

// Work done and seconds spent by one kind of public call in a pass.
struct Part {
  double work = 0.0;
  double seconds = 0.0;
};

struct Pass {
  std::map<std::string, Part> parts;
  double wall_s = 0.0;
  // Every answer of the pass as text; passes share inputs, so this
  // repeats exactly within a run.
  std::string answers;
};

// The layer split of one traced pass.
struct Layers {
  std::map<std::string, double> seconds;      // per-layer times
  std::map<std::string, std::uint64_t> counts;  // exact work counts
  // Sums of sweep means, and steals (which depend on thread timing).
  std::map<std::string, double> observed;
  double public_s = 0.0;       // inside the job's public calls
  double attribution_s = 0.0;  // re-running sub-calls; not the job
};

struct SetupTimes {
  double core_s = 0.0;   // protocols, products and nets
  double table_s = 0.0;  // PairRuleTable::build
};

std::uint64_t counter(const ppsc::obs::MetricSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

// Runs `call` and returns how much each of `names` grew in the obs
// registry.
std::vector<std::uint64_t> counter_growth(const std::vector<std::string>& names,
                                          const std::function<void()>& call) {
  const ppsc::obs::MetricRegistry& registry =
      ppsc::obs::MetricRegistry::global();
  const ppsc::obs::MetricSnapshot before = registry.snapshot();
  call();
  const ppsc::obs::MetricSnapshot after = registry.snapshot();
  std::vector<std::uint64_t> growth;
  for (const std::string& name : names) {
    growth.push_back(counter(after, name) - counter(before, name));
  }
  return growth;
}

// Times petri::explore and petri::scc_decompose directly on `initial`
// (the sub-calls of verify, wellspec and expected_time), under
// `<prefix>.explore_s` / `<prefix>.scc_s`.
void attribute_explore(const ppsc::petri::PetriNet& net,
                       const ppsc::core::Config& initial,
                       std::size_t max_configs, const std::string& prefix,
                       Layers& layers) {
  layers.attribution_s += timed([&] {
    ppsc::petri::ExploreLimits limits;
    limits.max_nodes = max_configs;
    ppsc::petri::ReachabilityGraph graph;
    const double explore_s = timed([&] {
      graph = ppsc::petri::explore(net, {ppsc::petri::Config(initial)}, limits);
    });
    const double scc_s =
        timed([&] { (void)ppsc::petri::scc_decompose(graph); });
    layers.seconds[prefix + ".explore_s"] += explore_s;
    layers.seconds[prefix + ".scc_s"] += scc_s;
    layers.counts["explore.configs"] += graph.stats.configs;
    layers.counts["explore.edges"] += graph.stats.edges;
    layers.counts["explore.tests"] +=
        graph.stats.configs * net.num_transitions();
  });
}

// Direct explore + SCC of input x, for a verifier's traced call. The
// verifiers return before exploring an empty population, so that is
// skipped here too.
void attribute_input(const ConstructedProtocol& cp, Count x,
                     const ppsc::petri::PetriNet& net,
                     const std::string& prefix, Layers& layers) {
  const ppsc::core::Config initial = cp.protocol.initial_config({x});
  if (ppsc::core::Protocol::population(initial) == 0) return;
  attribute_explore(net, initial, kVerifyMaxConfigs, prefix, layers);
}

// check_up_to over inputs 0..bound, every verdict scored. A traced pass
// issues the same inputs one by one through check_input, so that each
// splits into explore, SCC and self; `net` is the adapted net for those
// direct calls (the library's own per-input adapter copy stays in self).
void run_check(const ConstructedProtocol& cp, Count bound,
               const ppsc::petri::PetriNet& net, Pass& pass, Tally& tally,
               Layers* layers) {
  std::vector<ppsc::verify::Verdict> verdicts;
  double seconds = 0.0;
  try {
    if (layers == nullptr) {
      seconds = timed([&] {
        verdicts =
            ppsc::verify::check_up_to(cp.protocol, cp.predicate, bound)
                .verdicts;
      });
    } else {
      for (Count x = 0; x <= bound; ++x) {
        verdicts.emplace_back();
        seconds += timed([&] {
          verdicts.back() =
              ppsc::verify::check_input(cp.protocol, cp.predicate, {x});
        });
        attribute_input(cp, x, net, "verify", *layers);
      }
      layers->seconds["verify.call_s"] += seconds;
      layers->public_s += seconds;
    }
  } catch (const std::exception& error) {
    const auto ops = static_cast<std::uint64_t>(bound + 1);
    tally.add(ops, ops, cp.predicate.name + ": " + error.what());
    return;
  }
  double configs = 0.0;
  std::uint64_t bad = 0;
  for (const ppsc::verify::Verdict& verdict : verdicts) {
    configs += static_cast<double>(verdict.reachable_configs);
    if (!verdict.ok) ++bad;
    pass.answers += std::to_string(verdict.reachable_configs) +
                    (verdict.ok ? "+," : "-,");
  }
  tally.add(verdicts.size(), bad,
            cp.predicate.name + ": check_up_to verdict not ok");
  pass.parts["verify"].work += configs;
  pass.parts["verify"].seconds += seconds;
}

// check_well_specification_up_to over inputs 0..bound, the extracted
// consensus compared with the predicate; traced like run_check, through
// classify_input.
void run_wellspec(const ConstructedProtocol& cp, Count bound,
                  const ppsc::petri::PetriNet& net, Pass& pass, Tally& tally,
                  Layers* layers) {
  std::vector<ppsc::verify::WellSpecVerdict> verdicts;
  double seconds = 0.0;
  try {
    if (layers == nullptr) {
      seconds = timed([&] {
        verdicts =
            ppsc::verify::check_well_specification_up_to(cp.protocol, bound)
                .verdicts;
      });
    } else {
      for (Count x = 0; x <= bound; ++x) {
        verdicts.emplace_back();
        seconds += timed([&] {
          verdicts.back() = ppsc::verify::classify_input(cp.protocol, {x});
        });
        attribute_input(cp, x, net, "wellspec", *layers);
      }
      layers->seconds["wellspec.call_s"] += seconds;
      layers->public_s += seconds;
    }
  } catch (const std::exception& error) {
    const auto ops = static_cast<std::uint64_t>(bound + 1);
    tally.add(ops, ops, cp.predicate.name + ": " + error.what());
    return;
  }
  double configs = 0.0;
  std::uint64_t bad = 0;
  for (const ppsc::verify::WellSpecVerdict& verdict : verdicts) {
    configs += static_cast<double>(verdict.reachable_configs);
    // The empty population extracts false by convention (wellspec.h).
    const bool empty = ppsc::core::Protocol::population(
                           cp.protocol.initial_config(verdict.input)) == 0;
    const bool expected = !empty && cp.predicate(verdict.input);
    if (!verdict.value || *verdict.value != expected) ++bad;
    pass.answers += std::to_string(verdict.reachable_configs) +
                    (verdict.value ? (*verdict.value ? "1," : "0,") : "?,");
  }
  tally.add(verdicts.size(), bad,
            cp.predicate.name + ": extracted consensus differs from the "
                                "predicate");
  pass.parts["wellspec"].work += configs;
  pass.parts["wellspec"].seconds += seconds;
}

// One operation of a pass. Ops are closed over their job's inputs.
using Op = std::function<void(Pass&, Tally&, Layers*)>;

// One of the four jobs; a workload runs two of them.
class Job {
 public:
  Job(const Sizes& sizes, std::uint64_t seed) : sizes_(sizes), seed_(seed) {}
  virtual ~Job() = default;
  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  // Builds the job's inputs (timed) and appends its ops to `ops`.
  virtual SetupTimes build(std::vector<Op>& ops) = 0;

 protected:
  // A seed for simulation op `k`, disjoint across --seed values for any
  // sweep of fewer than 10^5 runs.
  std::uint64_t sim_seed(std::uint64_t k) const {
    return seed_ * 1000003ULL + k * 100000ULL;
  }

  const Sizes sizes_;
  const std::uint64_t seed_;
};

class Workload {
 public:
  Workload(std::vector<std::unique_ptr<Job>> jobs, std::uint64_t seed)
      : jobs_(std::move(jobs)), seed_(seed) {}

  // Builds the inputs (timed) and the op list; callable repeatedly.
  SetupTimes setup() {
    ops_.clear();
    SetupTimes times;
    for (const std::unique_ptr<Job>& job : jobs_) {
      const SetupTimes job_times = job->build(ops_);
      times.core_s += job_times.core_s;
      times.table_s += job_times.table_s;
    }
    // The seed fixes the order in which the pass issues its ops.
    ppsc::util::Xoshiro256 rng(seed_ ^ 0x9e3779b97f4a7c15ULL);
    for (std::size_t i = ops_.size(); i > 1; --i) {
      std::swap(ops_[i - 1], ops_[rng.below(i)]);
    }
    return times;
  }

  // One pass over every op. With `layers` the pass is traced.
  Pass pass(Tally& tally, Layers* layers) {
    Pass result;
    const Clock::time_point start = Clock::now();
    for (const auto& op : ops_) op(result, tally, layers);
    result.wall_s = since(start);
    return result;
  }

 private:
  std::vector<std::unique_ptr<Job>> jobs_;
  const std::uint64_t seed_;
  std::vector<Op> ops_;
};

// ---------------------------------------------------------------------
// verify-wide: the e17 Boolean-closure products (up to ~4k transitions)
// through check_up_to and check_well_specification_up_to.
// ---------------------------------------------------------------------

class VerifyWide : public Job {
 public:
  using Job::Job;

 private:
  struct Product {
    ConstructedProtocol cp;
    Count bound;
  };

  SetupTimes build(std::vector<Op>& ops) override {
    using namespace ppsc::core;
    SetupTimes times;
    std::vector<Product> products;
    times.core_s = timed([&] {
      products.push_back({negate(unary_counting(3)), sizes_.negate_bound});
      products.push_back({interval_counting(2, 4), sizes_.interval_bound});
      products.push_back({conjunction(unary_counting(2), modulo_counting(2, 1)),
                          sizes_.conjunction_bound});
      products.push_back({disjunction(unary_counting(4), modulo_counting(3, 0)),
                          sizes_.disjunction_bound});
    });
    products_ = std::move(products);
    nets_.clear();
    for (const Product& product : products_) {
      nets_.emplace_back(product.cp.protocol.net());
    }
    for (std::size_t i = 0; i < products_.size(); ++i) {
      ops.push_back([this, i](Pass& pass, Tally& tally, Layers* layers) {
        const Product& product = products_[i];
        run_check(product.cp, product.bound, nets_[i], pass, tally, layers);
        run_wellspec(product.cp, product.bound, nets_[i], pass, tally,
                     layers);
      });
    }
    return times;
  }

  std::vector<Product> products_;
  std::vector<ppsc::petri::PetriNet> nets_;  // for the direct explore calls
};

// ---------------------------------------------------------------------
// exact-deep: few transitions, many configurations.
// ---------------------------------------------------------------------

class ExactDeep : public Job {
 public:
  using Job::Job;

 private:
  struct Solve {
    std::string family;
    ConstructedProtocol cp;
    Count agents;
  };

  SetupTimes build(std::vector<Op>& ops) override {
    using namespace ppsc::core;
    SetupTimes times;
    std::optional<ConstructedProtocol> leader;
    std::vector<Solve> solves;
    std::optional<ConstructedProtocol> cover;
    std::optional<ppsc::petri::PetriNet> cover_net;
    times.core_s = timed([&] {
      leader = example_4_2(sizes_.leaders);
      solves.push_back(
          {"unary_counting(4)", unary_counting(4), sizes_.unary_agents});
      solves.push_back(
          {"threshold_belief(6)", threshold_belief(6), sizes_.belief_agents});
      cover = unary_counting(sizes_.cover_n);
      cover_net.emplace(cover->protocol.net());
    });
    leader_ = std::move(leader);
    solves_ = std::move(solves);
    cover_ = std::move(cover);
    cover_net_ = std::move(cover_net);
    leader_net_.emplace(leader_->protocol.net());
    solve_nets_.clear();
    for (const Solve& solve : solves_) {
      solve_nets_.emplace_back(solve.cp.protocol.net());
    }
    cover_target_ = ppsc::petri::Config::unit(
        cover_->protocol.num_states(),
        cover_->protocol.states().at(std::to_string(sizes_.cover_n) + "!"));

    // The paper's leader protocol, checked up to 2n.
    ops.push_back([this](Pass& pass, Tally& tally, Layers* layers) {
      run_check(*leader_, 2 * sizes_.leaders, *leader_net_, pass, tally,
                layers);
    });
    for (std::size_t i = 0; i < solves_.size(); ++i) {
      ops.push_back([this, i](Pass& pass, Tally& tally, Layers* layers) {
        run_solve(i, pass, tally, layers);
      });
    }
    // One query below the threshold (not coverable), one at it.
    for (const Count x : {sizes_.cover_n - 1, sizes_.cover_n}) {
      ops.push_back([this, x](Pass& pass, Tally& tally, Layers* layers) {
        run_cover(x, pass, tally, layers);
      });
    }
    return times;
  }

  void run_solve(std::size_t i, Pass& pass, Tally& tally,
                 Layers* layers) const {
    const Solve& solve = solves_[i];
    ppsc::sim::ExpectedTimeResult result;
    const double seconds = timed([&] {
      result = ppsc::sim::expected_interactions_to_silence(
          solve.cp.protocol, {solve.agents}, kExactMaxConfigs);
    });
    if (layers != nullptr) {
      layers->seconds["exact.call_s"] += seconds;
      layers->public_s += seconds;
      attribute_explore(solve_nets_[i],
                        solve.cp.protocol.initial_config({solve.agents}),
                        kExactMaxConfigs, "exact", *layers);
    }
    const std::optional<double> reference =
        reference_expected_steps(solve.family, solve.agents);
    const bool ok = result.computed && reference &&
                    std::abs(result.expected_steps - *reference) <=
                        1e-9 * std::abs(*reference);
    tally.add(1, ok ? 0 : 1,
              solve.family + " at " + std::to_string(solve.agents) +
                  " agents: expected steps " + fmt(result.expected_steps) +
                  (reference ? ", reference " + fmt(*reference)
                             : ", no reference value"));
    pass.answers += fmt(result.expected_steps) + ";";
    pass.parts["exact"].work += static_cast<double>(result.reachable_configs);
    pass.parts["exact"].seconds += seconds;
  }

  void run_cover(Count x, Pass& pass, Tally& tally, Layers* layers) const {
    const ppsc::core::Config source = cover_->protocol.initial_config({x});
    bool covered = false;
    const double seconds = timed([&] {
      covered = ppsc::petri::coverable(*cover_net_, ppsc::petri::Config(source),
                                       cover_target_, kCoverMaxBasis);
    });
    if (layers != nullptr) {
      layers->seconds["cover.call_s"] += seconds;
      layers->public_s += seconds;
      layers->attribution_s += timed([&] {
        ppsc::petri::BackwardBasisStats stats;
        layers->seconds["cover.basis_s"] += timed([&] {
          (void)ppsc::petri::backward_basis(*cover_net_, cover_target_,
                                            kCoverMaxBasis, &stats);
        });
        layers->counts["cover.comparisons"] += stats.comparisons;
        layers->counts["cover.predecessors"] += stats.predecessors;
        std::uint64_t& peak = layers->counts["cover.basis_peak"];
        peak = std::max<std::uint64_t>(peak, stats.basis_peak);
      });
    }
    // An agent accumulating n needs n input agents.
    const bool expected = x >= sizes_.cover_n;
    tally.add(1, covered == expected ? 0 : 1,
              "coverable(" + std::to_string(sizes_.cover_n) + "!) from " +
                  std::to_string(x) + " agents answered " +
                  (covered ? "true" : "false"));
    pass.answers += covered ? "C," : "c,";
    pass.parts["coverability"].work += 1.0;
    pass.parts["coverability"].seconds += seconds;
  }

  std::optional<ConstructedProtocol> leader_;
  std::vector<Solve> solves_;
  std::optional<ConstructedProtocol> cover_;
  std::optional<ppsc::petri::PetriNet> cover_net_;
  ppsc::petri::Config cover_target_;
  // Nets for the direct explore calls of traced passes.
  std::optional<ppsc::petri::PetriNet> leader_net_;
  std::vector<ppsc::petri::PetriNet> solve_nets_;
};

// Every PairRuleTable::build in setup must compile: the simulation jobs
// are chosen to run on the table-based schedulers.
std::optional<ppsc::sim::PairRuleTable> build_table(
    const ConstructedProtocol& cp) {
  std::optional<ppsc::sim::PairRuleTable> table =
      ppsc::sim::PairRuleTable::build(cp.protocol);
  if (!table) {
    throw std::runtime_error(cp.predicate.name + " has no pair rule table");
  }
  return table;
}

// ---------------------------------------------------------------------
// sim-sweep: many short runs below 2^16 agents (the agent-array path).
// ---------------------------------------------------------------------

class SimSweep : public Job {
 public:
  using Job::Job;

 private:
  SetupTimes build(std::vector<Op>& ops) override {
    SetupTimes times;
    std::optional<ConstructedProtocol> unary;
    std::optional<ConstructedProtocol> leader;
    times.core_s = timed([&] {
      unary = ppsc::core::unary_counting(8);
      leader = ppsc::core::example_4_2(sizes_.boundary_n);
    });
    // Built only to time the layer: each sweep compiles its own table.
    std::optional<ppsc::sim::PairRuleTable> unary_table;
    std::optional<ppsc::sim::PairRuleTable> leader_table;
    times.table_s = timed([&] {
      unary_table = build_table(*unary);
      leader_table = build_table(*leader);
    });
    unary_ = std::move(unary);
    leader_ = std::move(leader);

    ppsc::sim::RunOptions to_silence;
    to_silence.seed = sim_seed(0);
    ops.push_back([this, to_silence](Pass& pass, Tally& tally,
                                     Layers* layers) {
      run(*unary_, sizes_.sweep_agents, sizes_.sweep_runs, to_silence, true,
          pass, tally, layers);
    });
    // The predicate boundary under a productive-step budget: the
    // rejecting runs (x = n-1) practically never go silent.
    const Count n = sizes_.boundary_n;
    for (const Count x : {n - 1, n, n + 1}) {
      ppsc::sim::RunOptions budget;
      budget.seed = sim_seed(static_cast<std::uint64_t>(x - n + 2));
      budget.max_steps = sizes_.boundary_budget;
      const bool accepts = x >= n;
      const std::size_t runs =
          accepts ? sizes_.accept_runs : sizes_.reject_runs;
      ops.push_back([this, x, runs, budget, accepts](Pass& pass, Tally& tally,
                                                     Layers* layers) {
        run(*leader_, x, runs, budget, accepts, pass, tally, layers);
      });
    }
    return times;
  }

  // measure_convergence_parallel with default scheduling (kAuto) over
  // nproc threads. Traced: also at one thread, which must agree exactly
  // in its statistics and sim.agent.* counters.
  ppsc::sim::ConvergenceStats sweep(const ConstructedProtocol& cp, Count x,
                                    std::size_t runs,
                                    const ppsc::sim::RunOptions& options,
                                    double& seconds, Tally& tally,
                                    Layers* layers) const {
    ppsc::sim::ConvergenceStats stats;
    const auto call = [&](unsigned threads, ppsc::sim::ConvergenceStats& out) {
      return timed([&] {
        out = ppsc::sim::measure_convergence_parallel(cp, {x}, runs, options,
                                                      threads);
      });
    };
    if (layers == nullptr) {
      seconds = call(0, stats);
      return stats;
    }
    const std::vector<std::string> names = {"sim.agent.draws",
                                            "sim.agent.productive"};
    const std::vector<std::uint64_t> wide =
        counter_growth(names, [&] { seconds = call(0, stats); });
    layers->public_s += seconds;
    layers->seconds["sweep.n_s"] += seconds;
    ppsc::sim::ConvergenceStats serial;
    double serial_s = 0.0;
    std::vector<std::uint64_t> narrow;
    layers->attribution_s += timed([&] {
      narrow = counter_growth(names, [&] { serial_s = call(1, serial); });
    });
    layers->seconds["sweep.1_s"] += serial_s;
    layers->counts["agent.draws"] += wide[0];
    layers->counts["agent.productive"] += wide[1];
    const bool same = serial.converged == stats.converged &&
                      serial.correct == stats.correct &&
                      serial.mean_steps == stats.mean_steps && narrow == wide;
    tally.add(1, same ? 0 : 1,
              cp.predicate.name + ": 1-thread sweep differs from nproc sweep");
    return stats;
  }

  // A run fails if it goes silent on the wrong consensus, or, where
  // silence is expected, if it is not silent within the budget.
  void run(const ConstructedProtocol& cp, Count x, std::size_t runs,
           const ppsc::sim::RunOptions& options, bool must_silence,
           Pass& pass, Tally& tally, Layers* layers) const {
    double seconds = 0.0;
    const ppsc::sim::ConvergenceStats stats =
        sweep(cp, x, runs, options, seconds, tally, layers);
    const std::size_t bad = must_silence ? stats.runs - stats.correct
                                         : stats.converged - stats.correct;
    tally.add(runs, bad,
              cp.predicate.name + " at x=" + std::to_string(x) + ": " +
                  std::to_string(bad) + " failed runs");
    if (layers != nullptr) {
      layers->observed["sweep.mean_steps"] += stats.mean_steps;
    }
    pass.answers += std::to_string(stats.converged) + "/" +
                    std::to_string(stats.correct) + "/" +
                    fmt(stats.mean_steps) + ";";
    const double steps = stats.mean_steps * static_cast<double>(runs);
    pass.parts["sweep_steps"].work += steps;
    pass.parts["sweep_steps"].seconds += seconds;
    pass.parts["sweep_runs"].work += static_cast<double>(runs);
    pass.parts["sweep_runs"].seconds += seconds;
  }

  std::optional<ConstructedProtocol> unary_;
  std::optional<ConstructedProtocol> leader_;
};

// ---------------------------------------------------------------------
// sim-large: one large population per protocol (census, sharded).
// ---------------------------------------------------------------------

class SimLarge : public Job {
 public:
  using Job::Job;

 private:
  SetupTimes build(std::vector<Op>& ops) override {
    SetupTimes times;
    std::optional<ConstructedProtocol> unary;
    std::optional<ConstructedProtocol> belief;
    times.core_s = timed([&] {
      unary = ppsc::core::unary_counting(8);
      belief = ppsc::core::threshold_belief(80);
    });
    std::optional<ppsc::sim::PairRuleTable> unary_table;
    std::optional<ppsc::sim::PairRuleTable> belief_table;
    times.table_s = timed([&] {
      unary_table = build_table(*unary);
      belief_table = build_table(*belief);
    });
    unary_ = std::move(unary);
    belief_ = std::move(belief);
    belief_table_ = std::move(belief_table);

    ops.push_back([this](Pass& pass, Tally& tally, Layers* layers) {
      run_census(pass, tally, layers);
    });
    ops.push_back([this](Pass& pass, Tally& tally, Layers* layers) {
      run_sharded(pass, tally, layers);
    });
    return times;
  }

  // unary_counting(8) to silence; kAuto dispatches it to the census
  // scheduler (<= 64 states, >= 2^16 agents).
  void run_census(Pass& pass, Tally& tally, Layers* layers) const {
    ppsc::sim::RunOptions options;
    options.seed = sim_seed(0);
    ppsc::sim::ConvergenceStats stats;
    const double seconds = timed([&] {
      stats = ppsc::sim::measure_convergence_parallel(
          *unary_, {sizes_.census_agents}, 1, options);
    });
    if (layers != nullptr) {
      layers->seconds["census.run_s"] += seconds;
      layers->public_s += seconds;
    }
    tally.add(1, stats.correct == 1 ? 0 : 1,
              "unary_counting(8) at " + std::to_string(sizes_.census_agents) +
                  " agents: not silent on consensus 1");
    pass.answers += std::to_string(stats.correct) + "/" +
                    fmt(stats.mean_steps) + ";";
    pass.parts["silence"].work += stats.mean_steps;
    pass.parts["silence"].seconds += seconds;
  }

  // threshold_belief(80) under a step budget; 80 states > 64, so kAuto
  // dispatches it to the sharded scheduler, with up to nproc workers.
  void run_sharded(Pass& pass, Tally& tally, Layers* layers) const {
    ppsc::sim::RunOptions options;
    options.seed = sim_seed(1);
    options.max_steps = sizes_.shard_budget;
    ppsc::sim::ConvergenceStats stats;
    const double seconds = timed([&] {
      stats = ppsc::sim::measure_convergence_parallel(
          *belief_, {sizes_.shard_agents}, 1, options);
    });
    if (layers != nullptr) {
      layers->seconds["shard.run_s"] += seconds;
      layers->public_s += seconds;
      layers->attribution_s += timed([&] {
        compare_workers(options.seed, tally, *layers);
      });
    }
    const std::size_t bad = stats.converged - stats.correct;
    tally.add(1, bad,
              "threshold_belief(80): silent on the wrong consensus");
    pass.answers += std::to_string(stats.converged) + "/" +
                    fmt(stats.mean_steps) + ";";
    pass.parts["budget"].work += stats.mean_steps;
    pass.parts["budget"].seconds += seconds;
  }

  // ShardedSimulator::run on the op's budget at 1 worker and at nproc
  // workers; the chain depends on (seed, shards) only, so both must
  // end on the same census.
  void compare_workers(std::uint64_t seed, Tally& tally,
                       Layers& layers) const {
    const ppsc::core::Config initial =
        belief_->protocol.initial_config({sizes_.shard_agents});
    std::vector<double> seconds;
    std::vector<ppsc::core::Config> census;
    for (const unsigned workers : {1u, nproc()}) {
      ppsc::sim::ShardedOptions options;
      options.workers = workers;
      ppsc::sim::ShardedSimulator simulator(*belief_table_, initial, seed,
                                            options);
      seconds.push_back(timed([&] { simulator.run(sizes_.shard_budget); }));
      census.push_back(simulator.census());
    }
    layers.seconds["shard.w1_s"] += seconds[0];
    layers.seconds["shard.wn_s"] += seconds[1];
    tally.add(1, census[0] == census[1] ? 0 : 1,
              "sharded run differs between 1 and nproc workers");
  }

  std::optional<ConstructedProtocol> unary_;
  std::optional<ConstructedProtocol> belief_;
  std::optional<ppsc::sim::PairRuleTable> belief_table_;
};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// --trace 0. Same names and units as "end_to_end" in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"configs_per_s", "1/s"},
    {"steps_per_s", "1/s"},
};

// Parts behind configs_per_s (configurations settled by the verifiers
// and the expected-time solver) and steps_per_s (productive simulation
// steps). Each workload has at least one part of each.
const std::vector<std::string> kConfigParts = {"verify", "wellspec", "exact"};
const std::vector<std::string> kStepParts = {"sweep_steps", "silence",
                                             "budget"};

// --trace 1. Same names and units as "per_layer" in BENCHMARK.json.
// Every workload emits every name; a layer the workload does not
// exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"core.build_s", "s"},
    {"sim.table_build_s", "s"},
    {"petri.explore_s", "s"},
    {"petri.explore.ns_per_config", "ns"},
    {"petri.explore.configs", "count"},
    {"petri.explore.edges", "count"},
    {"petri.explore.fire_frac", "frac"},
    {"petri.scc_s", "s"},
    {"petri.coverability_s", "s"},
    {"petri.coverability.comparisons", "count"},
    {"petri.coverability.predecessors", "count"},
    {"petri.coverability.basis_peak", "count"},
    {"petri.coverability.comparisons_per_predecessor", "count"},
    {"verify.self_s", "s"},
    {"verify.wellspec_self_s", "s"},
    {"verify.bottom_configs", "count"},
    {"sim.exact_self_s", "s"},
    {"sim.expected_time.pivots", "count"},
    {"sim.agent.draws", "count"},
    {"sim.agent.productive", "count"},
    {"sim.agent.productive_frac", "frac"},
    {"sim.agent.draw_ns", "ns"},
    {"sim.sweep.thread_speedup", "x"},
    {"sim.sweep.mean_steps", "count"},
    {"sim.census.productive", "count"},
    {"sim.census.rebuilds", "count"},
    {"sim.census.rebuilds_per_step", "count"},
    {"sim.census.step_ns", "ns"},
    {"sim.shard.draws", "count"},
    {"sim.shard.productive", "count"},
    {"sim.shard.cross_swaps", "count"},
    {"sim.shard.productive_frac", "frac"},
    {"sim.shard.cross_swaps_per_draw", "count"},
    {"sim.shard.steals", "count"},
    {"sim.shard.worker_speedup", "x"},
    {"obs.trace_overhead_frac", "frac"},
    {"unattributed_frac", "frac"},
    {"verify_configs_per_s", "1/s"},
    {"wellspec_configs_per_s", "1/s"},
    {"exact_configs_per_s", "1/s"},
    {"coverability_s", "s"},
    {"sweep_runs_per_s", "1/s"},
    {"sweep_steps_per_s", "1/s"},
    {"silence_steps_per_s", "1/s"},
    {"budget_steps_per_s", "1/s"},
    {"failed_frac", "frac"},
};

// Registry counters a traced pass reads as pass totals (sweeps read
// sim.agent.* per call instead, see SimSweep::sweep).
const std::vector<std::string> kPassCounters = {
    "verify.bottom_configs", "expected_time.pivots", "sim.census.productive",
    "sim.census.rebuilds",   "sim.shard.draws",      "sim.shard.productive",
    "sim.shard.cross_swaps", "sim.shard.steals",
};

// Work of the named parts over all passes ÷ the seconds their public
// calls took. Host slowdowns come in plateaus of seconds, so a total
// over the whole run is steadier than a median of per-pass rates.
double run_rate(const std::vector<Pass>& passes,
                const std::vector<std::string>& names) {
  Part sum;
  for (const Pass& pass : passes) {
    for (const std::string& name : names) {
      const auto it = pass.parts.find(name);
      if (it == pass.parts.end()) continue;
      sum.work += it->second.work;
      sum.seconds += it->second.seconds;
    }
  }
  return ratio(sum.work, sum.seconds);
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// The time-valued per-layer metrics of one traced pass.
std::map<std::string, double> layer_times(const Layers& layers,
                                          double job_s, double untraced_s) {
  const auto s = [&layers](const std::string& key) {
    const auto it = layers.seconds.find(key);
    return it == layers.seconds.end() ? 0.0 : it->second;
  };
  const auto c = [&layers](const std::string& key) {
    const auto it = layers.counts.find(key);
    return it == layers.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::map<std::string, double> m;
  const double explore_s =
      s("verify.explore_s") + s("wellspec.explore_s") + s("exact.explore_s");
  m["petri.explore_s"] = explore_s;
  m["petri.explore.ns_per_config"] = 1e9 * ratio(explore_s, c("explore.configs"));
  m["petri.scc_s"] = s("verify.scc_s") + s("wellspec.scc_s") + s("exact.scc_s");
  m["petri.coverability_s"] = s("cover.basis_s");
  m["verify.self_s"] =
      s("verify.call_s") - s("verify.explore_s") - s("verify.scc_s");
  m["verify.wellspec_self_s"] =
      s("wellspec.call_s") - s("wellspec.explore_s") - s("wellspec.scc_s");
  m["sim.exact_self_s"] =
      s("exact.call_s") - s("exact.explore_s") - s("exact.scc_s");
  m["sim.agent.draw_ns"] = 1e9 * ratio(s("sweep.1_s"), c("agent.draws"));
  m["sim.sweep.thread_speedup"] = ratio(s("sweep.1_s"), s("sweep.n_s"));
  m["sim.census.step_ns"] =
      1e9 * ratio(s("census.run_s"), c("sim.census.productive"));
  m["sim.shard.worker_speedup"] = ratio(s("shard.w1_s"), s("shard.wn_s"));
  const auto steals = layers.observed.find("sim.shard.steals");
  m["sim.shard.steals"] =
      steals == layers.observed.end() ? 0.0 : steals->second;
  m["obs.trace_overhead_frac"] = ratio(job_s, untraced_s) - 1.0;
  m["unattributed_frac"] = 1.0 - ratio(layers.public_s, job_s);
  return m;
}

// The exact per-layer counts of a traced pass.
std::map<std::string, double> layer_counts(const Layers& layers) {
  const auto c = [&layers](const std::string& key) {
    const auto it = layers.counts.find(key);
    return it == layers.counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::map<std::string, double> m;
  m["petri.explore.configs"] = c("explore.configs");
  m["petri.explore.edges"] = c("explore.edges");
  m["petri.explore.fire_frac"] =
      ratio(c("explore.edges"), c("explore.tests"));
  m["petri.coverability.comparisons"] = c("cover.comparisons");
  m["petri.coverability.predecessors"] = c("cover.predecessors");
  m["petri.coverability.basis_peak"] = c("cover.basis_peak");
  m["petri.coverability.comparisons_per_predecessor"] =
      ratio(c("cover.comparisons"), c("cover.predecessors"));
  m["verify.bottom_configs"] = c("verify.bottom_configs");
  m["sim.expected_time.pivots"] = c("expected_time.pivots");
  m["sim.agent.draws"] = c("agent.draws");
  m["sim.agent.productive"] = c("agent.productive");
  m["sim.agent.productive_frac"] =
      ratio(c("agent.productive"), c("agent.draws"));
  const auto mean = layers.observed.find("sweep.mean_steps");
  m["sim.sweep.mean_steps"] =
      mean == layers.observed.end() ? 0.0 : mean->second;
  m["sim.census.productive"] = c("sim.census.productive");
  m["sim.census.rebuilds"] = c("sim.census.rebuilds");
  m["sim.census.rebuilds_per_step"] =
      ratio(c("sim.census.rebuilds"), c("sim.census.productive"));
  m["sim.shard.draws"] = c("sim.shard.draws");
  m["sim.shard.productive"] = c("sim.shard.productive");
  m["sim.shard.cross_swaps"] = c("sim.shard.cross_swaps");
  m["sim.shard.productive_frac"] =
      ratio(c("sim.shard.productive"), c("sim.shard.draws"));
  m["sim.shard.cross_swaps_per_draw"] =
      ratio(c("sim.shard.cross_swaps"), c("sim.shard.draws"));
  return m;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string git_rev = "unknown";
};

int usage(const char* why) {
  std::fprintf(stderr,
               "ppsc_bench: %s\nusage: ppsc_bench --workload "
               "wide-small|deep-large [--seed N] "
               "[--seconds S] [--trace 0|1] [--size full|small] "
               "[--git-rev REV]\n",
               why);
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 0.0)) return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "small") return std::nullopt;
      args.small = value == "small";
    } else if (flag == "--git-rev") {
      args.git_rev = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty()) return std::nullopt;
  return args;
}

// wide-small: wide nets and small populations (verify-wide, sim-sweep);
// deep-large: deep nets and large populations (exact-deep, sim-large).
// Each optimisation target is exercised by one and bypassed by the
// other (README.md).
std::unique_ptr<Workload> make_workload(const Args& args) {
  const Sizes& sizes = args.small ? kSmall : kFull;
  std::vector<std::unique_ptr<Job>> jobs;
  if (args.workload == "wide-small") {
    jobs.push_back(std::make_unique<VerifyWide>(sizes, args.seed));
    jobs.push_back(std::make_unique<SimSweep>(sizes, args.seed));
  } else if (args.workload == "deep-large") {
    jobs.push_back(std::make_unique<ExactDeep>(sizes, args.seed));
    jobs.push_back(std::make_unique<SimLarge>(sizes, args.seed));
  } else {
    return nullptr;
  }
  return std::make_unique<Workload>(std::move(jobs), args.seed);
}

void write_stamp(ppsc::obs::JsonWriter& json, const Args& args) {
  const auto cache = [](int name) {
    const long bytes = sysconf(name);
    return static_cast<std::int64_t>(bytes > 0 ? bytes : 0);
  };
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  json.key("stamp").begin_object();
  json.key("nproc").value(static_cast<std::uint64_t>(nproc()));
  json.key("l1d_bytes").value(cache(_SC_LEVEL1_DCACHE_SIZE));
  json.key("l2_bytes").value(cache(_SC_LEVEL2_CACHE_SIZE));
  json.key("l3_bytes").value(cache(_SC_LEVEL3_CACHE_SIZE));
  json.key("compiler").value(compiler);
  json.key("build_type").value(PPSC_BENCH_BUILD_TYPE);
  json.key("ppsc_obs").value(PPSC_OBS_ENABLED != 0);
  json.key("git_rev").value(args.git_rev);
  json.end_object();
}

void write_metrics(ppsc::obs::JsonWriter& json, const MetricDef* defs,
                   std::size_t count,
                   const std::map<std::string, double>& values) {
  json.key("metrics").begin_object();
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = values.find(defs[i].name);
    json.key(defs[i].name).begin_object();
    json.key("value").value(it == values.end() ? 0.0 : it->second);
    json.key("unit").value(defs[i].unit);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse(argc, argv);
  if (!parsed) return usage("bad arguments");
  const Args& args = *parsed;
  const std::unique_ptr<Workload> workload = make_workload(args);
  if (!workload) return usage("unknown workload");

  // End-to-end numbers are taken with both registries off, whatever
  // PPSC_OBS / PPSC_OBS_TRACE say.
  ppsc::obs::MetricRegistry& registry = ppsc::obs::MetricRegistry::global();
  registry.set_enabled(false);
  ppsc::obs::TraceRegistry::global().set_enabled(false);

  Tally tally;
  std::vector<double> setup_s;
  std::vector<double> core_s;
  std::vector<double> table_s;
  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  std::vector<std::map<std::string, double>> traced_times;
  std::map<std::string, double> counts;
  std::string answers;
  try {
    // Setup is timed in short bursts before every measured pass, so its
    // median samples the same stretch of machine time as the passes;
    // one build can take only microseconds.
    const auto set_up = [&] {
      const Clock::time_point burst = Clock::now();
      do {
        const SetupTimes times = workload->setup();
        setup_s.push_back(times.core_s + times.table_s);
        core_s.push_back(times.core_s);
        table_s.push_back(times.table_s);
      } while (since(burst) < 0.03);
    };
    workload->setup();

    const auto check_answers = [&](const Pass& pass) {
      if (answers.empty()) answers = pass.answers;
      tally.add(0, pass.answers == answers ? 0 : 1,
                "answers differ between passes of one run");
    };
    check_answers(workload->pass(tally, nullptr));  // warm-up
    const Clock::time_point start = Clock::now();
    do {
      set_up();
      untraced.push_back(workload->pass(tally, nullptr));
      check_answers(untraced.back());
      if (!args.trace) continue;
      Layers layers;
      std::vector<std::uint64_t> totals;
      registry.set_enabled(true);
      totals = counter_growth(kPassCounters, [&] {
        traced.push_back(workload->pass(tally, &layers));
      });
      registry.set_enabled(false);
      check_answers(traced.back());
      for (std::size_t i = 0; i < kPassCounters.size(); ++i) {
        if (kPassCounters[i] == "sim.shard.steals") {
          layers.observed[kPassCounters[i]] = static_cast<double>(totals[i]);
        } else {
          layers.counts[kPassCounters[i]] = totals[i];
        }
      }
      const double job_s = traced.back().wall_s - layers.attribution_s;
      traced_times.push_back(
          layer_times(layers, job_s, untraced.back().wall_s));
      // Work counts repeat exactly from pass to pass.
      const std::map<std::string, double> pass_counts = layer_counts(layers);
      if (counts.empty()) counts = pass_counts;
      tally.add(0, pass_counts == counts ? 0 : 1,
                "work counts differ between traced passes");
    } while (since(start) < args.seconds ||
             untraced.size() < (args.trace ? 2u : 3u));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ppsc_bench: %s\n", error.what());
    return 1;
  }

  std::map<std::string, double> values;
  if (!args.trace) {
    double walls = 0.0;
    for (const Pass& pass : untraced) walls += pass.wall_s;
    values["setup_s"] = median(setup_s);
    values["wall_s"] = walls / static_cast<double>(untraced.size());
    values["peak_rss_mb"] = peak_rss_mb();
    values["configs_per_s"] = run_rate(untraced, kConfigParts);
    values["steps_per_s"] = run_rate(untraced, kStepParts);
  } else {
    values = counts;
    std::map<std::string, std::vector<double>> series;
    for (const auto& pass_times : traced_times) {
      for (const auto& [name, value] : pass_times) {
        series[name].push_back(value);
      }
    }
    for (const auto& [name, samples] : series) values[name] = median(samples);
    values["core.build_s"] = median(core_s);
    values["sim.table_build_s"] = median(table_s);
    values["verify_configs_per_s"] = run_rate(untraced, {"verify"});
    values["wellspec_configs_per_s"] = run_rate(untraced, {"wellspec"});
    values["exact_configs_per_s"] = run_rate(untraced, {"exact"});
    const double queries_per_s = run_rate(untraced, {"coverability"});
    values["coverability_s"] = queries_per_s > 0 ? 1.0 / queries_per_s : 0.0;
    values["sweep_runs_per_s"] = run_rate(untraced, {"sweep_runs"});
    values["sweep_steps_per_s"] = run_rate(untraced, {"sweep_steps"});
    values["silence_steps_per_s"] = run_rate(untraced, {"silence"});
    values["budget_steps_per_s"] = run_rate(untraced, {"budget"});
    values["failed_frac"] = ratio(static_cast<double>(tally.failed),
                                  static_cast<double>(tally.attempted));
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;

  // Report line: everything a reader needs to reproduce or compare.
  {
    ppsc::obs::JsonWriter json;
    json.begin_object();
    json.key("workload").value(args.workload);
    json.key("seed").value(args.seed);
    json.key("size").value(args.small ? "small" : "full");
    json.key("trace").value(args.trace);
    write_stamp(json, args);
    json.key("setups").value(static_cast<std::uint64_t>(setup_s.size()));
    json.key("passes").value(static_cast<std::uint64_t>(untraced.size()));
    json.key("traced_passes").value(static_cast<std::uint64_t>(traced.size()));
    json.key("pass_wall_s").begin_array();
    for (const Pass& pass : untraced) json.value(pass.wall_s);
    json.end_array();
    // Seconds in each part's public calls, pass by pass.
    json.key("pass_part_s").begin_object();
    if (!untraced.empty()) {
      for (const auto& part : untraced.front().parts) {
        json.key(part.first).begin_array();
        for (const Pass& pass : untraced) {
          const auto it = pass.parts.find(part.first);
          json.value(it == pass.parts.end() ? 0.0 : it->second.seconds);
        }
        json.end_array();
      }
    }
    json.end_object();
    json.key("answers").value(answers);
    json.key("failures").begin_array();
    for (const std::string& reason : tally.reasons) json.value(reason);
    json.end_array();
    json.end_object();
    std::printf("%s\n", json.str().c_str());
  }
  // Result line.
  {
    ppsc::obs::JsonWriter json;
    json.begin_object();
    json.key("correct").value(correct);
    json.key("attempted").value(tally.attempted);
    json.key("failed").value(tally.failed);
    if (args.trace) {
      write_metrics(json, kPerLayer, std::size(kPerLayer), values);
    } else {
      write_metrics(json, kEndToEnd, std::size(kEndToEnd), values);
    }
    json.end_object();
    std::printf("%s\n", json.str().c_str());
  }
  return 0;
}
