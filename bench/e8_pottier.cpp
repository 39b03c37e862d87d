// E8 — Pottier's bound [12] and Lemma 7.3's multicycle replacement.
//
// Part 1: Hilbert bases of random homogeneous systems; max ‖x‖₁ of a
// minimal solution vs (2 + Σ‖a_j‖∞)^d.
// Part 2: the Lemma 7.3 replacement on pump/drain ring control nets scaled
// by the multicycle size ℓ: |Θ′| stays constant while |Θ| grows, and stays
// below the lemma's bound.

#include <cmath>
#include <cstdio>

#include "report.h"
#include "solver/diophantine.h"
#include "solver/multicycle.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using ppsc::solver::HomogeneousSystem;

HomogeneousSystem random_system(std::size_t vars, std::size_t rows,
                                ppsc::util::Xoshiro256& rng) {
  HomogeneousSystem system;
  system.num_vars = vars;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::int64_t> row(vars);
    for (auto& coefficient : row) {
      coefficient = static_cast<std::int64_t>(rng.below(7)) - 3;  // [-3, 3]
    }
    system.rows.push_back(std::move(row));
  }
  return system;
}

}  // namespace

int main() {
  ppsc::bench::Report report("e8_pottier");
  std::printf("E8 part 1: Hilbert basis norms vs Pottier bound\n\n");
  ppsc::util::TablePrinter part1({"vars", "rows", "systems", "max basis size",
                                  "max log2 |x|_1", "log2 bound", "holds"});

  ppsc::util::Xoshiro256 rng(12);
  for (std::size_t vars : {3, 4, 5}) {
    for (std::size_t rows : {1, 2}) {
      std::size_t max_basis = 0;
      double max_norm = 0.0;
      double bound = 0.0;
      bool all_hold = true;
      const int kSystems = 15;
      for (int i = 0; i < kSystems; ++i) {
        report.add_items(1);
        auto system = random_system(vars, rows, rng);
        auto result = ppsc::solver::hilbert_basis(system);
        if (!result.complete) continue;
        max_basis = std::max(max_basis, result.basis.size());
        double system_bound = ppsc::solver::log2_pottier_bound(system);
        for (const auto& element : result.basis) {
          double log2_norm = std::log2(
              static_cast<double>(ppsc::solver::norm_l1(element)));
          max_norm = std::max(max_norm, log2_norm);
          if (log2_norm > system_bound) all_hold = false;
        }
        bound = std::max(bound, system_bound);
      }
      part1.add_row({std::to_string(vars), std::to_string(rows),
                     std::to_string(kSystems), std::to_string(max_basis),
                     ppsc::util::format_double(max_norm, 4),
                     ppsc::util::format_double(bound, 4),
                     all_hold ? "yes" : "NO"});
    }
  }
  part1.print();

  std::printf("\nE8 part 2: Lemma 7.3 replacement size vs input multicycle\n\n");
  using ppsc::petri::Config;
  using ppsc::petri::ControlStateNet;
  using ppsc::petri::PetriNet;

  PetriNet net(3);
  net.add(Config{1, 0, 0}, Config{0, 1, 0});
  net.add(Config{0, 1, 0}, Config{1, 0, 1});  // pump c
  net.add(Config{0, 1, 1}, Config{1, 0, 0});  // drain c
  ControlStateNet cnet(net, 2);
  cnet.add_edge(0, 0, 1);
  cnet.add_edge(1, 1, 0);
  cnet.add_edge(1, 2, 0);

  ppsc::util::TablePrinter part2({"|Theta|", "Delta(c)", "|Theta'|",
                                  "Delta'(c)", "log2 bound", "holds"});
  double log2_bound = ppsc::solver::log2_lemma73_length_bound(cnet);
  for (std::uint64_t scale : {10, 100, 1000, 10000}) {
    report.add_items(1);
    // scale pump cycles + scale/2 drain cycles.
    std::vector<std::uint64_t> theta{scale + scale / 2, scale, scale / 2};
    auto replacement = ppsc::solver::small_multicycle(cnet, theta, /*k=*/3);
    if (!replacement.has_value()) {
      part2.add_row({std::to_string(theta[0] + theta[1] + theta[2]), "-", "-",
                     "-", "-", "NO"});
      continue;
    }
    std::uint64_t theta_len = theta[0] + theta[1] + theta[2];
    bool holds = std::log2(static_cast<double>(replacement->length)) <=
                 log2_bound;
    part2.add_row(
        {std::to_string(theta_len),
         std::to_string(scale - scale / 2),
         std::to_string(replacement->length),
         std::to_string(replacement->displacement[2]),
         ppsc::util::format_double(log2_bound, 4), holds ? "yes" : "NO"});
  }
  part2.print();

  std::printf(
      "\n|Theta'| is independent of |Theta|: the lemma compresses pumping\n"
      "multicycles to constant size while preserving displacement signs.\n");
  return 0;
}
