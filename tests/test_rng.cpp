// util/rng stream-splitting: the jump functions and the per-stream
// family the sharded scheduler seeds its shards from. The pinned
// sequences are regression anchors -- xoshiro256** and its jump
// polynomials are specified bit-exactly, so these values must never
// change on any platform.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>

#include "util/rng.h"

namespace {

using ppsc::util::Xoshiro256;

TEST(Rng, PinnedBaseSequence) {
  Xoshiro256 rng(12345);
  EXPECT_EQ(rng.next(), 0xbe6a36374160d49bull);
  EXPECT_EQ(rng.next(), 0x214aaa0637a688c6ull);
  EXPECT_EQ(rng.next(), 0xf69d16de9954d388ull);
  EXPECT_EQ(rng.next(), 0x0c60048c4e96e033ull);
}

TEST(Rng, PinnedJumpSequence) {
  Xoshiro256 rng(12345);
  rng.jump();
  EXPECT_EQ(rng.next(), 0x3ed575283f0594e6ull);
  EXPECT_EQ(rng.next(), 0x4b77bcfa88a79146ull);
  EXPECT_EQ(rng.next(), 0x6336cf023aa5cafeull);
  EXPECT_EQ(rng.next(), 0xe668c1b68171d10dull);
}

TEST(Rng, PinnedLongJumpSequence) {
  Xoshiro256 rng(12345);
  rng.long_jump();
  EXPECT_EQ(rng.next(), 0x92654155fb089136ull);
  EXPECT_EQ(rng.next(), 0xb9b536ab88690194ull);
  EXPECT_EQ(rng.next(), 0x65002a32ac1251beull);
  EXPECT_EQ(rng.next(), 0x27ff20b58cc86e71ull);
}

TEST(Rng, PinnedStreamSequence) {
  Xoshiro256 rng = Xoshiro256::stream(12345, 3);
  EXPECT_EQ(rng.next(), 0x1a5442dc8aa8e92bull);
  EXPECT_EQ(rng.next(), 0xbb2a2b8436842362ull);
  EXPECT_EQ(rng.next(), 0xcc6b09085e64d857ull);
  EXPECT_EQ(rng.next(), 0x2496399f4348b925ull);
}

TEST(Rng, StreamZeroIsThePlainGenerator) {
  // The sharded scheduler's 1-shard bit-identity contract rests on
  // stream 0 being exactly Xoshiro256(seed).
  Xoshiro256 plain(0x5eed);
  Xoshiro256 stream0 = Xoshiro256::stream(0x5eed, 0);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(stream0.next(), plain.next());
}

TEST(Rng, StreamsAreDisjoint) {
  // Distinct jump counts land 2^128 draws apart; the first outputs of
  // a handful of streams (and the long_jump axis) must never collide.
  std::set<std::uint64_t> seen;
  std::size_t produced = 0;
  for (std::uint64_t index = 0; index < 8; ++index) {
    Xoshiro256 rng = Xoshiro256::stream(0x5eed, index);
    for (int i = 0; i < 256; ++i) {
      seen.insert(rng.next());
      ++produced;
    }
  }
  Xoshiro256 aux(0x5eed);
  aux.long_jump();
  for (int i = 0; i < 256; ++i) {
    seen.insert(aux.next());
    ++produced;
  }
  EXPECT_EQ(seen.size(), produced);
}

TEST(Rng, StreamStatisticalSmoke) {
  // Per-stream uniformity smoke: the mean of unit() sits near 1/2 and
  // each below(k) bucket near its share. Tolerances are ~6 sigma for
  // the sample sizes, so the test is deterministic in practice.
  for (std::uint64_t index = 0; index < 4; ++index) {
    Xoshiro256 rng = Xoshiro256::stream(987654321, index);
    double sum = 0.0;
    int buckets[8] = {0};
    const int samples = 16384;
    for (int i = 0; i < samples; ++i) {
      sum += rng.unit();
      ++buckets[rng.below(8)];
    }
    EXPECT_NEAR(sum / samples, 0.5, 0.015) << "stream " << index;
    for (int b = 0; b < 8; ++b) {
      EXPECT_NEAR(buckets[b], samples / 8, 300) << "stream " << index;
    }
  }
}

// Reference: Lemire's rejection in its always-modulo form, computing
// the threshold 2^64 mod bound on every draw.
std::uint64_t below_modulo_reference(Xoshiro256& rng, std::uint64_t bound) {
  if (bound == 0) return 0;
  while (true) {
    const std::uint64_t x = rng.next();
    const unsigned __int128 product =
        static_cast<unsigned __int128>(x) * bound;
    const std::uint64_t low = static_cast<std::uint64_t>(product);
    if (low >= (0ull - bound) % bound) {
      return static_cast<std::uint64_t>(product >> 64);
    }
  }
}

TEST(Rng, BelowMatchesModuloReference) {
  // Same accept/reject decisions, hence the same output and the same
  // generator position after every draw. The bounds past 2^63 reject
  // up to half the draws, so the rejection loop runs often.
  const std::uint64_t bounds[] = {0,
                                  1,
                                  2,
                                  3,
                                  63,
                                  1000,
                                  (1ull << 32) - 1,
                                  (1ull << 32) + 1,
                                  1ull << 63,
                                  (1ull << 63) + 1,
                                  ~0ull};
  for (const std::uint64_t bound : bounds) {
    Xoshiro256 fast(0xb0b);
    Xoshiro256 reference(0xb0b);
    for (int i = 0; i < 4096; ++i) {
      ASSERT_EQ(fast.below(bound), below_modulo_reference(reference, bound))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(fast.next(), reference.next()) << "bound " << bound;
  }
  // Mixed bounds on one stream, as the simulators draw them.
  Xoshiro256 fast(7);
  Xoshiro256 reference(7);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t bound = bounds[i % std::size(bounds)];
    ASSERT_EQ(fast.below(bound), below_modulo_reference(reference, bound))
        << "draw " << i;
  }
}

TEST(Rng, JumpCommutesWithDrawing) {
  // jump() is a pure state-space advance: jumping then drawing k times
  // equals drawing k times then jumping (the polynomial commutes with
  // the linear engine). Guards against a jump implementation that
  // perturbs the stream instead of advancing it.
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  a.jump();
  for (int i = 0; i < 17; ++i) a.next();
  for (int i = 0; i < 17; ++i) b.next();
  b.jump();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
