#include "solver/multicycle.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace ppsc {
namespace solver {

std::optional<Multicycle> small_multicycle(
    const petri::ControlStateNet& cnet, const std::vector<std::uint64_t>& phi,
    std::uint64_t k) {
  if (phi.size() != cnet.num_edges()) {
    throw std::invalid_argument("small_multicycle: phi size mismatch");
  }
  if (k == 0) {
    throw std::invalid_argument("small_multicycle: k must be >= 1");
  }
  // Circulation check: balanced flow at every control state.
  std::vector<std::int64_t> balance(cnet.num_controls(), 0);
  std::uint64_t gcd = 0;
  bool any = false;
  for (std::size_t e = 0; e < phi.size(); ++e) {
    if (phi[e] == 0) continue;
    any = true;
    if (phi[e] < k) return std::nullopt;  // hypothesis: k-fold repetition
    gcd = std::gcd(gcd, phi[e]);
    balance[cnet.edge(e).from] += static_cast<std::int64_t>(phi[e]);
    balance[cnet.edge(e).to] -= static_cast<std::int64_t>(phi[e]);
  }
  if (!any) return std::nullopt;
  for (std::int64_t b : balance) {
    if (b != 0) return std::nullopt;
  }

  Multicycle small;
  small.parikh.resize(phi.size(), 0);
  std::size_t anchor = 0;
  for (std::size_t e = 0; e < phi.size(); ++e) {
    if (phi[e] == 0) continue;
    small.parikh[e] = phi[e] / gcd;
    small.length += small.parikh[e];
    anchor = cnet.edge(e).from;
  }
  small.displacement = cnet.displacement(small.parikh);
  // Realize the replacement as one closed walk when the support is
  // connected (phi / gcd is still a circulation, so only connectivity
  // can fail).
  small.walk = cnet.euler_circuit(small.parikh, anchor);
  return small;
}

double log2_lemma73_length_bound(const petri::ControlStateNet& cnet) {
  const double edges = static_cast<double>(cnet.num_edges());
  const double controls = static_cast<double>(cnet.num_controls());
  const double places = static_cast<double>(cnet.net().num_states());
  const double norm = static_cast<double>(cnet.net().norm_inf());
  return (edges + places) * std::log2(2.0 + controls + places * norm);
}

}  // namespace solver
}  // namespace ppsc
