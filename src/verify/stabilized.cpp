#include "verify/stabilized.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "petri/coverability.h"
#include "verify/stable.h"

namespace ppsc {
namespace verify {

namespace {

void check_mask(const petri::PetriNet& net, const std::vector<bool>& f_mask) {
  if (f_mask.size() != net.num_states()) {
    throw std::invalid_argument(
        "verify/stabilized: f_mask size does not match net");
  }
}

petri::Config truncate(const petri::Config& config, std::uint64_t h) {
  petri::Config truncated = config;
  const petri::Count cap = static_cast<petri::Count>(h);
  for (std::size_t q = 0; q < truncated.size(); ++q) {
    if (truncated[q] > cap) truncated[q] = cap;
  }
  return truncated;
}

}  // namespace

bool StabilizationCertificate::stabilized(const petri::Config& rho) const {
  for (const auto& basis : bases) {
    for (const petri::Config& element : basis) {
      if (rho.covers(element)) return false;
    }
  }
  return true;
}

StabilizationCertificate stabilization_certificate(
    const petri::PetriNet& net, const std::vector<bool>& f_mask,
    std::size_t max_basis) {
  check_mask(net, f_mask);
  obs::ScopedSpan span("verify.stabilized", "verify");

  StabilizationCertificate certificate;
  certificate.num_states = net.num_states();
  std::uint64_t basis_total = 0;
  for (std::size_t q = 0; q < net.num_states(); ++q) {
    if (f_mask[q]) continue;
    certificate.bad_states.push_back(q);
    certificate.bases.push_back(petri::backward_basis(
        net, petri::Config::unit(net.num_states(), q), max_basis));
    basis_total += certificate.bases.back().size();
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("verify.stabilized.queries", certificate.bad_states.size());
    registry.add("verify.stabilized.basis_total", basis_total);
  }
  return certificate;
}

bool is_stabilized(const petri::PetriNet& net, const petri::Config& rho,
                   const std::vector<bool>& f_mask) {
  return stabilization_certificate(net, f_mask).stabilized(rho);
}

std::optional<std::uint64_t> minimal_effective_h(
    const petri::PetriNet& net, const std::vector<petri::Config>& seeds,
    const std::vector<bool>& f_mask, std::uint64_t limit,
    std::uint64_t probe_height) {
  check_mask(net, f_mask);
  const StabilizationCertificate certificate =
      stabilization_certificate(net, f_mask);
  obs::ScopedSpan span("verify.stabilized.search", "verify");

  const std::size_t d = net.num_states();
  std::uint64_t probes = 0;
  std::optional<std::uint64_t> found;
  for (std::uint64_t h = 1; h <= limit && !found; ++h) {
    const std::uint64_t side = h + probe_height + 1;
    double box = 1.0;
    for (std::size_t q = 0; q < d; ++q) box *= static_cast<double>(side);
    if (box > static_cast<double>(1u << 24)) {
      throw std::invalid_argument(
          "minimal_effective_h: probe box exceeds 2^24 configurations");
    }

    const auto effective_on = [&](const petri::Config& sigma) {
      ++probes;
      return certificate.stabilized(sigma) ==
             certificate.stabilized(truncate(sigma, h));
    };

    bool effective = true;
    for (const petri::Config& seed : seeds) {
      if (!effective_on(seed)) {
        effective = false;
        break;
      }
    }
    if (effective) {
      for_each_point<petri::Config>(
          d, static_cast<petri::Count>(h + probe_height),
          [&](const petri::Config& sigma) {
            effective = effective_on(sigma);
            return effective;
          });
    }
    if (effective) found = h;
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  if (registry.enabled()) {
    registry.add("verify.stabilized.probes", probes);
  }
  return found;
}

}  // namespace verify
}  // namespace ppsc
