// Small sign-compatible multicycle replacements (Lemma 7.3).
//
// A multicycle over a control-state net is a multiset of cycles,
// recorded by its Parikh image phi (occurrences per edge); phi is a
// circulation: at every control state the in- and out-flows balance.
// Lemma 7.3 replaces a multicycle that repeats every used edge at
// least k times by a much smaller one with the same edge support and a
// displacement (net token effect on the underlying places) of the same
// sign everywhere -- the pumping argument of Section 8 only needs the
// signs, so the replacement can stand in for the big multicycle.
//
// This reproduction implements the repetition case the Theorem 4.3
// pipeline (bench E9) exercises: the replacement is phi / gcd(phi),
// which divides every entry, preserves the support, and scales the
// displacement by 1/gcd(phi) -- sign-compatible exactly. When phi is a
// k-fold multiple (phi = k * phi0, the shape the pipeline produces),
// gcd(phi) >= k and the replacement length is at most |phi| / k.

#ifndef PPSC_SOLVER_MULTICYCLE_H
#define PPSC_SOLVER_MULTICYCLE_H

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "petri/control_net.h"

namespace ppsc {
namespace solver {

struct Multicycle {
  // Occurrences per control-net edge.
  std::vector<std::uint64_t> parikh;
  // Total number of edge instances, |Theta'|.
  std::uint64_t length = 0;
  // Net token effect on the underlying places (the quantity whose signs
  // Lemma 7.3 preserves); equals cnet.displacement(parikh).
  std::vector<petri::Count> displacement;
  // Realization as one closed walk (cnet.euler_circuit of parikh) when
  // the support is connected; nullopt otherwise.
  std::optional<std::vector<std::size_t>> walk;
};

// Replacement for the multicycle with Parikh image `phi` on `cnet`.
// The displacement is sign-compatible on every underlying place of
// `cnet` -- for a net built by from_component, exactly the places
// outside Q. Returns std::nullopt when phi is empty, not a circulation,
// or some used edge occurs fewer than `k` times (the lemma's
// hypothesis).
std::optional<Multicycle> small_multicycle(
    const petri::ControlStateNet& cnet, const std::vector<std::uint64_t>& phi,
    std::uint64_t k);

// log2 of Lemma 7.3's cap on the replacement length |Theta'|, in the
// reproduction's convention:
// (|E| + |P|) * log2(2 + |S| + |P| * ||T||_inf), with E the control
// edges, S the control states, P the underlying places and T their
// Petri net. Bench E8 checks measured replacement lengths against it.
double log2_lemma73_length_bound(const petri::ControlStateNet& cnet);

}  // namespace solver
}  // namespace ppsc

#endif  // PPSC_SOLVER_MULTICYCLE_H
