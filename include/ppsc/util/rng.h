// Deterministic xoshiro256** generator so benches and simulations are
// reproducible across platforms (std::mt19937 distributions are not
// specified bit-exactly; this is).

#ifndef PPSC_UTIL_RNG_H
#define PPSC_UTIL_RNG_H

#include <cstdint>

namespace ppsc {
namespace util {

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed);

  // The draws sit in the header so the simulators' draw loops inline
  // them.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, bound); bound 0 returns 0. Lemire's multiply-shift
  // with rejection, nearly divisionless (Lemire 2019): a draw is
  // rejected iff the low product word falls below 2^64 mod bound, and
  // since that threshold is < bound, the division computing it runs
  // only when the low word is < bound -- a 2^-64 * bound chance per
  // draw. The accept/reject decision is the always-modulo form's, so
  // the output sequence is identical draw for draw.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) return 0;
    unsigned __int128 product =
        static_cast<unsigned __int128>(next()) * bound;
    std::uint64_t low = static_cast<std::uint64_t>(product);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        product = static_cast<unsigned __int128>(next()) * bound;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  // Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  // Advances the state by 2^128 draws in O(1): the canonical xoshiro
  // jump polynomial. Two generators seeded identically and separated
  // by distinct jump counts produce non-overlapping subsequences for
  // any realistic draw budget, which is what makes stream() safe.
  void jump();

  // Advances by 2^192 draws; reserves a second axis of separation so
  // auxiliary generators (e.g. a cross-shard exchange stream) can
  // never collide with the jump-derived worker streams.
  void long_jump();

  // Stream `index` of the family derived from `seed`: the seeded
  // generator jumped `index` times. Stream 0 is bit-identical to
  // Xoshiro256(seed), so a 1-stream consumer is exactly the plain
  // generator -- the sharded scheduler's 1-shard compatibility
  // contract rests on this.
  static Xoshiro256 stream(std::uint64_t seed, std::uint64_t index);

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace util
}  // namespace ppsc

#endif  // PPSC_UTIL_RNG_H
