#include "common/hash.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define DYCUCKOO_CRC32_FOLD 1
#endif

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

// Advances the CRC register (pre-inverted) over `len` bytes, eight at a
// time through the slicing tables.
uint32_t Crc32Slice8(uint32_t crc, const unsigned char* p, size_t len) {
  // The 8-byte step folds the CRC into the low word of a little-endian load.
  static_assert(std::endian::native == std::endian::little);
  const auto& t = kCrc32Tables;
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
  return crc;
}

#ifdef DYCUCKOO_CRC32_FOLD
// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ", Intel 2009), in the bit-reflected
// domain of 0xEDB88320.  Four 128-bit lanes each fold 64 bytes ahead
// (multiply by x^(512±32) mod P), then the lanes fold into one (x^(128±32)),
// 16-byte blocks fold into it, and the 128-bit remainder shrinks to 64 and
// then 32 bits, the last step by Barrett reduction.  Each constant is
// x^k mod P (or the Barrett quotient), bit-reflected and shifted left by
// one, as the reflected carry-less product needs.
constexpr uint64_t kFold512[2] = {0x0154442bd4, 0x01c6e41596};  // 4 lanes
constexpr uint64_t kFold128[2] = {0x01751997d0, 0x00ccaa009e};  // 1 lane
constexpr uint64_t kFold64 = 0x0163cd6124;                      // 64 -> 32
constexpr uint64_t kBarrett[2] = {0x01db710641, 0x01f7011641};  // P', mu

// a = a.lo * k.lo ^ a.hi * k.hi ^ next: one 128-bit fold step.
__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(
    __m128i a, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

// The register after `len` bytes; len is a multiple of 16 and at least 64.
__attribute__((target("pclmul,sse4.1"))) uint32_t Crc32Fold(
    uint32_t crc, const unsigned char* p, size_t len) {
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  __m128i lane0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(
                                             static_cast<int>(crc)));
  __m128i lane1 = load(p + 16);
  __m128i lane2 = load(p + 32);
  __m128i lane3 = load(p + 48);
  p += 64;
  len -= 64;
  __m128i k = _mm_set_epi64x(static_cast<int64_t>(kFold512[1]),
                             static_cast<int64_t>(kFold512[0]));
  for (; len >= 64; p += 64, len -= 64) {
    lane0 = Fold(lane0, k, load(p));
    lane1 = Fold(lane1, k, load(p + 16));
    lane2 = Fold(lane2, k, load(p + 32));
    lane3 = Fold(lane3, k, load(p + 48));
  }
  k = _mm_set_epi64x(static_cast<int64_t>(kFold128[1]),
                     static_cast<int64_t>(kFold128[0]));
  __m128i acc = Fold(lane0, k, lane1);
  acc = Fold(acc, k, lane2);
  acc = Fold(acc, k, lane3);
  for (; len >= 16; p += 16, len -= 16) acc = Fold(acc, k, load(p));

  // 128 -> 64 bits: the low half, times kFold128's high constant, folds
  // onto the high half.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k, 0x10));
  // 64 -> 32 bits.
  const __m128i k64 = _mm_set_epi64x(0, static_cast<int64_t>(kFold64));
  acc = _mm_xor_si128(_mm_srli_si128(acc, 4),
                      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k64,
                                           0x00));
  // Barrett reduction to the 32-bit remainder.
  const __m128i barrett = _mm_set_epi64x(static_cast<int64_t>(kBarrett[1]),
                                         static_cast<int64_t>(kBarrett[0]));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, q), 1));
}

bool CpuCanFold() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}
#endif  // DYCUCKOO_CRC32_FOLD

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc ^= 0xFFFFFFFFu;
#ifdef DYCUCKOO_CRC32_FOLD
  static const bool can_fold = CpuCanFold();
  if (len >= 64 && can_fold) {
    const size_t folded = len & ~size_t{15};
    crc = Crc32Fold(crc, p, folded);
    p += folded;
    len -= folded;
  }
#endif
  return Crc32Slice8(crc, p, len) ^ 0xFFFFFFFFu;
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
