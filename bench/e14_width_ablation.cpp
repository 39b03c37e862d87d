// E14 — Ablation: the width/state trade-off made explicit.
//
// Section 4's message is that 2 states suffice if width may grow with n
// (Example 4.1). This experiment compiles Example 4.1's width-n net to
// width 2 and counts what the compilation costs in places and transitions —
// the other side of the trade-off the paper's lower bound quantifies. The
// projection-equivalence of each compilation is re-checked on the spot.

#include <cstdio>
#include <set>

#include "core/constructions.h"
#include "petri/reachability.h"
#include "petri/width_reduction.h"
#include "report.h"
#include "util/table.h"

namespace {

using ppsc::petri::Config;
using ppsc::petri::Count;
using ppsc::petri::PetriNet;

bool equivalent(const PetriNet& net, const ppsc::petri::WidthReduction& red,
                const Config& root) {
  std::set<Config> original;
  {
    auto graph = ppsc::petri::explore(net, {root});
    if (graph.truncated) return false;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      original.insert(graph.config(i));
    }
  }
  std::set<Config> compiled;
  {
    auto graph = ppsc::petri::explore(red.compiled, {red.embed(root)});
    if (graph.truncated) return false;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      compiled.insert(red.project(red.cleanup(graph.config(i))));
    }
  }
  return original == compiled;
}

}  // namespace

int main() {
  ppsc::bench::Report report("e14_width_ablation");
  std::printf("E14: compiling width-n counting to width 2\n\n");
  ppsc::util::TablePrinter table({"n", "places", "transitions", "width",
                                  "->", "places'", "transitions'", "width'",
                                  "equivalent"});

  for (Count n = 2; n <= 6; ++n) {
    auto c = ppsc::core::example_4_1(n);
    const PetriNet& net = c.protocol.net();
    auto reduction = ppsc::petri::widen_to_width2(net);
    report.add_items(1);

    Config root(2);
    root[0] = n + 1;  // above threshold: the interesting dynamics
    bool ok = equivalent(net, reduction, root);

    table.add_row({std::to_string(n), std::to_string(net.num_states()),
                   std::to_string(net.num_transitions()),
                   std::to_string(net.max_width()), "",
                   std::to_string(reduction.compiled.num_states()),
                   std::to_string(reduction.compiled.num_transitions()),
                   std::to_string(reduction.compiled.max_width()),
                   ok ? "yes" : "NO"});
  }
  table.print();

  std::printf(
      "\nThe compiled nets pay Θ(n²) collector places for Example 4.1's n\n"
      "width-n transitions — the width budget converts into a place budget,\n"
      "exactly the currency exchange Section 4 warns about. (This transform\n"
      "is Petri-net-level; protocol-level width reduction additionally\n"
      "requires an output discipline for auxiliary states, cf. [5].)\n");
  return 0;
}
