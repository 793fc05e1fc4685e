#include "common/hash.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/rng.h"

namespace dycuckoo {

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: table[0] is
// the classic byte-at-a-time table, and table[s][b] is the CRC of byte b
// followed by s zero bytes, so eight table lookups advance the CRC by eight
// input bytes at once.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < t.size(); ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

// Polynomials over GF(2) modulo the CRC polynomial, in the reflected bit
// order of the tables above: bit 31 is x^0, bit 30 is x^1, and so on.
constexpr uint32_t kCrcOne = 0x80000000u;

// a * b mod P.
constexpr uint32_t MulModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t bit = kCrcOne; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b & 1) ? (b >> 1) ^ 0xEDB88320u : b >> 1;  // b *= x
  }
  return product;
}

// kPow2[k] = x^(2^k) mod P: squaring the previous entry doubles the power.
// A byte count has 64 bits and a byte is 2^3 bits, so k runs up to 66.
using Crc32Powers = std::array<uint32_t, 67>;

constexpr Crc32Powers MakeCrc32Powers() {
  Crc32Powers p{};
  p[0] = kCrcOne >> 1;  // x^1
  for (size_t k = 1; k < p.size(); ++k) p[k] = MulModP(p[k - 1], p[k - 1]);
  return p;
}

constexpr Crc32Powers kPow2 = MakeCrc32Powers();

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  // The 8-byte step folds the CRC into the low word of a little-endian load.
  static_assert(std::endian::native == std::endian::little);
  const auto& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, sizeof(word));
    word ^= crc;
    crc = t[7][word & 0xFFu] ^ t[6][(word >> 8) & 0xFFu] ^
          t[5][(word >> 16) & 0xFFu] ^ t[4][(word >> 24) & 0xFFu] ^
          t[3][(word >> 32) & 0xFFu] ^ t[2][(word >> 40) & 0xFFu] ^
          t[1][(word >> 48) & 0xFFu] ^ t[0][word >> 56];
  }
  for (; len > 0; ++p, --len) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  // Appending len_b bytes multiplies A's CRC register by x^(8 * len_b);
  // the pre/post inversions of the two halves cancel in the XOR with B's.
  uint32_t shift = kCrcOne;
  for (size_t k = 3; len_b != 0; len_b >>= 1, ++k) {
    if (len_b & 1) shift = MulModP(kPow2[k], shift);
  }
  return MulModP(shift, crc_a) ^ crc_b;
}

UniversalHash UniversalHash::FromSeed(uint64_t seed) {
  SplitMix64 rng(seed);
  uint64_t a = rng.Next() % (kUniversalPrime - 1) + 1;
  uint64_t b = rng.Next() % kUniversalPrime;
  return UniversalHash(a, b);
}

}  // namespace dycuckoo
