#include "common/hash.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dycuckoo {
namespace {

TEST(UniversalHashTest, DeterministicForSameParams) {
  UniversalHash h(12345, 678);
  EXPECT_EQ(h(42, 1000), h(42, 1000));
  EXPECT_EQ(h.Raw(99), h.Raw(99));
}

TEST(UniversalHashTest, RangeRespected) {
  UniversalHash h = UniversalHash::FromSeed(7);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_LT(h(k, 17), 17u);
    EXPECT_LT(h(k, 1), 1u);
  }
}

TEST(UniversalHashTest, RawBelowPrime) {
  UniversalHash h = UniversalHash::FromSeed(99);
  for (uint64_t k = 0; k < 10000; k += 37) {
    EXPECT_LT(h.Raw(k), kUniversalPrime);
  }
}

TEST(UniversalHashTest, ZeroANormalizedToOne) {
  UniversalHash h(0, 5);
  EXPECT_EQ(h.a(), 1u);
}

TEST(UniversalHashTest, FromSeedDistinctSeedsDistinctFunctions) {
  UniversalHash h1 = UniversalHash::FromSeed(1);
  UniversalHash h2 = UniversalHash::FromSeed(2);
  int differences = 0;
  for (uint64_t k = 0; k < 100; ++k) {
    if (h1(k, 1 << 20) != h2(k, 1 << 20)) ++differences;
  }
  EXPECT_GT(differences, 90);
}

TEST(UniversalHashTest, AffineIdentity) {
  // Raw(k) == (a*k + b) mod p for small values computable directly.
  UniversalHash h(3, 11);
  for (uint64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(h.Raw(k), (3 * k + 11) % kUniversalPrime);
  }
}

TEST(Mix64Test, Deterministic) { EXPECT_EQ(Mix64(123), Mix64(123)); }

TEST(Mix64Test, AvalancheFlipsAboutHalfTheBits) {
  // Flipping one input bit should flip ~32 of the 64 output bits.
  double total_flips = 0;
  int trials = 0;
  for (uint64_t x = 1; x < 2000; x += 13) {
    for (int bit = 0; bit < 64; bit += 7) {
      uint64_t a = Mix64(x);
      uint64_t b = Mix64(x ^ (uint64_t{1} << bit));
      total_flips += __builtin_popcountll(a ^ b);
      ++trials;
    }
  }
  double mean = total_flips / trials;
  EXPECT_GT(mean, 28.0);
  EXPECT_LT(mean, 36.0);
}

TEST(Mix64Test, InjectiveOnSample) {
  std::unordered_set<uint64_t> outputs;
  for (uint64_t x = 0; x < 100000; ++x) outputs.insert(Mix64(x));
  EXPECT_EQ(outputs.size(), 100000u);  // splitmix64 finalizer is a bijection
}

TEST(Mix32Test, AvalancheFlipsAboutHalfTheBits) {
  double total_flips = 0;
  int trials = 0;
  for (uint32_t x = 1; x < 2000; x += 13) {
    for (int bit = 0; bit < 32; bit += 5) {
      total_flips += __builtin_popcount(Mix32(x) ^ Mix32(x ^ (1u << bit)));
      ++trials;
    }
  }
  double mean = total_flips / trials;
  EXPECT_GT(mean, 13.0);
  EXPECT_LT(mean, 19.0);
}

class MixHashUniformityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixHashUniformityTest, BucketsChiSquareReasonable) {
  // Hash 64k consecutive keys into 256 buckets; chi-square should be near
  // the 255 expected for uniform placement (generous 3-sigma bound).
  const uint64_t seed = GetParam();
  MixHash h(seed);
  constexpr int kBuckets = 256;
  constexpr int kKeys = 1 << 16;
  std::vector<int> counts(kBuckets, 0);
  for (uint64_t k = 0; k < kKeys; ++k) {
    counts[h.Raw(k) & (kBuckets - 1)]++;
  }
  double expected = static_cast<double>(kKeys) / kBuckets;
  double chi2 = 0;
  for (int c : counts) {
    double d = c - expected;
    chi2 += d * d / expected;
  }
  // dof = 255, sigma = sqrt(2*255) ~ 22.6.
  EXPECT_LT(chi2, 255 + 5 * 22.6) << "seed " << seed;
  EXPECT_GT(chi2, 255 - 5 * 22.6) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixHashUniformityTest,
                         ::testing::Values(0ull, 1ull, 42ull, 0xdeadbeefull,
                                           0x123456789abcdefull));

TEST(MixHashTest, SeedChangesFunction) {
  MixHash a(1), b(2);
  int diff = 0;
  for (uint64_t k = 0; k < 256; ++k) {
    if (a.Raw(k) != b.Raw(k)) ++diff;
  }
  EXPECT_EQ(diff, 256);
}

TEST(Crc32Test, KnownAnswerAndIncrementalComposition) {
  // CRC-32/ISO-HDLC check value (the standard "123456789" vector).
  const char* kCheck = "123456789";
  EXPECT_EQ(Crc32Update(0, kCheck, 9), 0xCBF43926u);

  // Incremental updates over arbitrary splits must match one-shot.
  const char data[] = "deterministic fault injection";
  uint32_t whole = Crc32Update(0, data, sizeof(data) - 1);
  for (size_t split = 0; split < sizeof(data) - 1; ++split) {
    uint32_t crc = Crc32Update(0, data, split);
    crc = Crc32Update(crc, data + split, sizeof(data) - 1 - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }

  EXPECT_EQ(Crc32Update(0, "", 0), 0u);
  EXPECT_NE(Crc32Update(0, "a", 1), Crc32Update(0, "b", 1));
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven Crc32Update must match on every input.
uint32_t ReferenceCrc32(uint32_t crc, const unsigned char* p, size_t len) {
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t n, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<unsigned char> bytes(n);
  for (auto& b : bytes) b = static_cast<unsigned char>(rng.Next());
  return bytes;
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  constexpr size_t kMaxLen = size_t{64} << 10;
  const auto bytes = RandomBytes(kMaxLen + 8, 2024);
  for (size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = bytes.data() + offset;
    for (size_t len = 0; len <= 256; ++len) {
      ASSERT_EQ(Crc32Update(0, p, len), ReferenceCrc32(0, p, len))
          << "offset " << offset << " length " << len;
    }
    for (size_t len : {size_t{1000}, size_t{4095}, size_t{4096},
                       size_t{4097}, kMaxLen - 1, kMaxLen}) {
      ASSERT_EQ(Crc32Update(0, p, len), ReferenceCrc32(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

// Inputs of 64 bytes or more take the carry-less-multiply fold where the
// CPU has one; it must agree with the byte-at-a-time definition at every
// length up to 4 KiB, from every alignment of a 16-byte load.
TEST(Crc32Test, FoldedPathMatchesBytewiseAtEveryLengthAndMisalignment) {
  constexpr size_t kMaxLen = 4096;
  const auto bytes = RandomBytes(kMaxLen + 16, 4242);
  for (size_t offset = 0; offset < 16; ++offset) {
    const unsigned char* p = bytes.data() + offset;
    uint32_t expected = 0;  // the reference CRC of p[0, len), grown by one
    for (size_t len = 0; len <= kMaxLen; ++len) {
      ASSERT_EQ(Crc32Update(0, p, len), expected)
          << "offset " << offset << " length " << len;
      if (len < kMaxLen) expected = ReferenceCrc32(expected, p + len, 1);
    }
  }
}

TEST(Crc32Test, RandomIncrementalSplitsMatchOneShot) {
  const auto bytes = RandomBytes(4096, 7);
  const uint32_t whole = ReferenceCrc32(0, bytes.data(), bytes.size());
  SplitMix64 rng(99);
  for (int round = 0; round < 200; ++round) {
    // Piece lengths 0..19 straddle the 8-byte stride from every phase.
    uint32_t crc = 0;
    size_t at = 0;
    while (at < bytes.size()) {
      size_t n = std::min<size_t>(rng.Next() % 20, bytes.size() - at);
      crc = Crc32Update(crc, bytes.data() + at, n);
      at += n;
    }
    ASSERT_EQ(crc, whole) << "round " << round;
  }
}

// Crc32Combine(crc(A), crc(B), |B|) == crc(A || B), at every split.
void ExpectCombineMatchesOneShot(const std::vector<unsigned char>& bytes,
                                 size_t split) {
  const unsigned char* p = bytes.data();
  const size_t len_b = bytes.size() - split;
  ASSERT_EQ(Crc32Combine(Crc32Update(0, p, split),
                         Crc32Update(0, p + split, len_b), len_b),
            Crc32Update(0, p, bytes.size()))
      << "length " << bytes.size() << " split " << split;
}

TEST(Crc32Test, CombineMatchesOneShotAtEverySplit) {
  SplitMix64 rng(31);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{255}, size_t{1000}, size_t{4096}}) {
    const auto bytes = RandomBytes(len, rng.Next());
    for (size_t split = 0; split <= len; ++split) {
      ExpectCombineMatchesOneShot(bytes, split);
    }
  }
}

TEST(Crc32Test, CombineMatchesOneShotOverFoldedMisalignedHalves) {
  constexpr size_t kLen = 1040;
  const auto bytes = RandomBytes(kLen + 15, 63);
  for (size_t offset : {size_t{0}, size_t{5}, size_t{15}}) {
    const unsigned char* p = bytes.data() + offset;
    const uint32_t whole = ReferenceCrc32(0, p, kLen);
    for (size_t split = 0; split <= kLen; ++split) {
      ASSERT_EQ(Crc32Combine(Crc32Update(0, p, split),
                             Crc32Update(0, p + split, kLen - split),
                             kLen - split),
                whole)
          << "offset " << offset << " split " << split;
    }
  }
}

TEST(Crc32Test, CombineWithEmptyHalves) {
  const auto bytes = RandomBytes(777, 5);
  const uint32_t crc = Crc32Update(0, bytes.data(), bytes.size());
  EXPECT_EQ(Crc32Combine(crc, 0, 0), crc);             // B empty
  EXPECT_EQ(Crc32Combine(0, crc, bytes.size()), crc);  // A empty
  EXPECT_EQ(Crc32Combine(0, 0, 0), 0u);                // both empty
  EXPECT_EQ(Crc32Combine(Crc32Update(0, "12345", 5),
                         Crc32Update(0, "6789", 4), 4),
            0xCBF43926u);
}

TEST(Crc32Test, CombineOverMultiMiBBuffer) {
  const auto bytes = RandomBytes((size_t{5} << 20) + 3, 77);
  for (size_t split : {size_t{1}, size_t{4096}, bytes.size() / 2,
                       bytes.size() - (size_t{1} << 20), bytes.size() - 1}) {
    ExpectCombineMatchesOneShot(bytes, split);
  }
}

TEST(MixHashTest, PowerOfTwoSplitIdentity) {
  // The conflict-free upsize relies on: x & (2n-1) is x & (n-1) or +n.
  MixHash h(77);
  for (uint64_t n : {64ull, 1024ull, 65536ull}) {
    for (uint64_t k = 0; k < 5000; ++k) {
      uint64_t small = h.Raw(k) & (n - 1);
      uint64_t big = h.Raw(k) & (2 * n - 1);
      EXPECT_TRUE(big == small || big == small + n);
    }
  }
}

}  // namespace
}  // namespace dycuckoo
