// Dense Petri-net configurations (markings), the one configuration
// type of the repo.
//
// petri::Config is a small value class usable with arbitrary -- in
// particular non-conservative -- nets: the coverability, Karp-Miller
// and bottom-witness engines all create and compare markings
// structurally, independent of any protocol. core::Config names the
// same type for protocol-level markings (agent counts per state).
//
// Conventions shared across include/ppsc/petri/ (see also
// coverability.h, karp_miller.h and bottom.h):
//
//  * A configuration assigns a count >= 0 to every place; places are
//    dense indices 0..d-1 and configurations of different dimension
//    never compare equal.
//  * `covers` is the componentwise order x >= y that all upward-closed
//    reasoning (coverability bases, omega-markings) is built on.
//  * `restrict(keep)` projects onto the places with keep[p] == true,
//    re-indexing them in increasing order of p. It is the marking-level
//    counterpart of PetriNet::restrict / PetriNet::project.

#ifndef PPSC_PETRI_CONFIG_H
#define PPSC_PETRI_CONFIG_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace ppsc {
namespace petri {

using Count = long long;

class Config {
 public:
  Config() = default;
  explicit Config(std::size_t dimension) : counts_(dimension, 0) {}
  Config(std::initializer_list<Count> counts) : counts_(counts) {}
  explicit Config(std::vector<Count> counts) : counts_(std::move(counts)) {}

  // The configuration with `count` tokens on `place` and 0 elsewhere.
  static Config unit(std::size_t dimension, std::size_t place,
                     Count count = 1);

  std::size_t size() const { return counts_.size(); }
  Count operator[](std::size_t place) const { return counts_[place]; }
  Count& operator[](std::size_t place) { return counts_[place]; }
  const Count* begin() const { return counts_.data(); }
  const Count* end() const { return counts_.data() + counts_.size(); }

  // Largest single-place count (the norm written ||.||_inf in Section 5).
  Count norm_inf() const;

  // Componentwise x >= other (same dimension required).
  bool covers(const Config& other) const;

  // Projection onto the places with keep[p] == true, re-indexed in
  // increasing place order.
  Config restrict(const std::vector<bool>& keep) const;

  friend bool operator==(const Config& a, const Config& b) {
    return a.counts_ == b.counts_;
  }
  friend bool operator!=(const Config& a, const Config& b) {
    return !(a == b);
  }
  // Lexicographic, so configurations can key ordered containers.
  friend bool operator<(const Config& a, const Config& b) {
    return a.counts_ < b.counts_;
  }

 private:
  std::vector<Count> counts_;
};

// Read-only view of one configuration's d counts, wherever they live:
// a Config converts implicitly, and a reachability graph hands out
// views into its flat arena (reachability.h) without copying.
class ConfigView {
 public:
  ConfigView(const Count* counts, std::size_t size)
      : counts_(counts), size_(size) {}
  // Implicit, so every view-taking API accepts a Config unchanged.
  ConfigView(const Config& config)
      : counts_(config.begin()), size_(config.size()) {}

  std::size_t size() const { return size_; }
  Count operator[](std::size_t place) const { return counts_[place]; }
  const Count* begin() const { return counts_; }
  const Count* end() const { return counts_ + size_; }

  // Componentwise x >= other (same dimension required).
  bool covers(const Config& other) const;

 private:
  const Count* counts_;
  std::size_t size_;
};

// Position-salted additive hash h(c) = sum_p term(p, c[p]) (mod 2^64),
// the one configuration hash of the repo: unordered containers of
// configurations (karp_miller, the Hilbert-basis frontier) use it, and
// so does explore()'s intern table. Each term runs (place, count)
// through the splitmix64 finalizer, so raw counts -- tiny integers,
// mostly 0s and 1s -- spread over all 64 bits and a count means
// something different on every place; permuted small markings
// therefore hash apart. Because the hash is a sum, firing a transition
// updates it over the transition's sparse delta alone:
// h(c + delta) = h(c) + sum_{p in delta} term(p, c'[p]) - term(p, c[p]).
struct ConfigHash {
  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64's gamma increment keeps zero counts from mixing to 0
    // (the finalizer alone is a bijection fixing 0).
    x += 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  // The contribution of `count` tokens on `place`: injective in
  // (place, count) below 2^32 of each, before the bijective mix.
  static std::uint64_t term(std::size_t place, std::uint64_t count) {
    return mix((static_cast<std::uint64_t>(place) << 32) ^ count);
  }

  static std::uint64_t of(ConfigView config) {
    std::uint64_t h = 0;
    for (std::size_t p = 0; p < config.size(); ++p) {
      h += term(p, static_cast<std::uint64_t>(config[p]));
    }
    return h;
  }

  std::size_t operator()(const Config& config) const {
    return static_cast<std::size_t>(of(config));
  }
};

}  // namespace petri
}  // namespace ppsc

#endif  // PPSC_PETRI_CONFIG_H
