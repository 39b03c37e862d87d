#include "util/rng.h"

namespace ppsc {
namespace util {

namespace {

// splitmix64, the recommended seeder for xoshiro.
std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  for (auto& word : state_) word = splitmix(seed);
}

namespace {

// Shared polynomial-jump driver: xors together the states reached at
// the bit positions of the jump polynomial while stepping the
// generator, landing 2^128 (jump) or 2^192 (long_jump) draws ahead.
template <typename Step>
void apply_jump(std::uint64_t (&state)[4], const std::uint64_t (&poly)[4],
                Step step) {
  std::uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (const std::uint64_t word : poly) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ull << bit)) {
        s0 ^= state[0];
        s1 ^= state[1];
        s2 ^= state[2];
        s3 ^= state[3];
      }
      step();
    }
  }
  state[0] = s0;
  state[1] = s1;
  state[2] = s2;
  state[3] = s3;
}

}  // namespace

void Xoshiro256::jump() {
  static constexpr std::uint64_t kJump[4] = {
      0x180ec6d33cfd0abaull, 0xd5a61266f0c9392cull, 0xa9582618e03fc9aaull,
      0x39abdc4529b1661cull};
  apply_jump(state_, kJump, [this] { next(); });
}

void Xoshiro256::long_jump() {
  static constexpr std::uint64_t kLongJump[4] = {
      0x76e15d3efefdcbbfull, 0xc5004e441c522fb3ull, 0x77710069854ee241ull,
      0x39109bb02acbe635ull};
  apply_jump(state_, kLongJump, [this] { next(); });
}

Xoshiro256 Xoshiro256::stream(std::uint64_t seed, std::uint64_t index) {
  Xoshiro256 rng(seed);
  for (std::uint64_t k = 0; k < index; ++k) rng.jump();
  return rng;
}

}  // namespace util
}  // namespace ppsc
