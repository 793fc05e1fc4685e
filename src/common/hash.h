// Hash function families used throughout the library.
//
// The paper (Section IV-A) uses a universal affine family
//   h_i(k) = ((a_i * k + b_i) mod p) mod |h_i|
// with per-subtable random (a_i, b_i) and a large prime p.  We provide that
// family verbatim (UniversalHash) plus a stronger seeded finalizer
// (MixHash, a splitmix64/murmur3-style avalanche) which the tables use by
// default: with power-of-two bucket counts the affine family's low bits are
// too regular, while a full-avalanche mixer keeps the conflict-free upsizing
// identity `x mod 2n ∈ {x mod n, x mod n + n}` intact (it only needs the
// 64-bit hash value to be fixed per key, not any algebraic structure).

#ifndef DYCUCKOO_COMMON_HASH_H_
#define DYCUCKOO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace dycuckoo {

/// Large Mersenne prime used by the universal family (2^61 - 1).
inline constexpr uint64_t kUniversalPrime = (uint64_t{1} << 61) - 1;

/// \brief The paper's universal affine family: ((a*k + b) mod p) mod range.
///
/// `a` must be in [1, p-1] and `b` in [0, p-1].
class UniversalHash {
 public:
  UniversalHash() : a_(1), b_(0) {}
  UniversalHash(uint64_t a, uint64_t b)
      : a_(a % kUniversalPrime), b_(b % kUniversalPrime) {
    if (a_ == 0) a_ = 1;
  }

  /// Creates a member of the family from a 64-bit seed.
  static UniversalHash FromSeed(uint64_t seed);

  /// Full 61-bit hash value (before range reduction).
  uint64_t Raw(uint64_t key) const {
    // (a*k + b) mod (2^61-1) without overflow via 128-bit arithmetic.
    unsigned __int128 prod = static_cast<unsigned __int128>(a_) * key + b_;
    uint64_t lo = static_cast<uint64_t>(prod & kUniversalPrime);
    uint64_t hi = static_cast<uint64_t>(prod >> 61);
    uint64_t res = lo + hi;
    if (res >= kUniversalPrime) res -= kUniversalPrime;
    return res;
  }

  /// Hash reduced to [0, range).
  uint64_t operator()(uint64_t key, uint64_t range) const {
    return Raw(key) % range;
  }

  uint64_t a() const { return a_; }
  uint64_t b() const { return b_; }

 private:
  uint64_t a_;
  uint64_t b_;
};

/// splitmix64 finalizer: full-avalanche 64-bit mix.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// \brief Seeded full-avalanche hash; the default for bucket addressing.
///
/// Distinct seeds yield (empirically) independent hash functions, which is
/// what cuckoo hashing requires of its d subtable functions.
class MixHash {
 public:
  MixHash() : seed_(0) {}
  explicit MixHash(uint64_t seed) : seed_(seed) {}

  uint64_t Raw(uint64_t key) const { return Mix64(key ^ seed_); }

  /// Hash reduced to [0, range); range may be any positive value but the
  /// tables always pass powers of two and mask instead.
  uint64_t operator()(uint64_t key, uint64_t range) const {
    return Raw(key) % range;
  }

  uint64_t seed() const { return seed_; }

 private:
  uint64_t seed_;
};

/// \brief Incremental CRC-32 (ISO-HDLC polynomial 0xEDB88320, the zlib /
/// POSIX cksum variant) used as the snapshot integrity trailer.
///
/// Start with `crc = 0`, feed chunks in order:
///   uint32_t crc = 0;
///   crc = Crc32Update(crc, a, a_len);
///   crc = Crc32Update(crc, b, b_len);
/// Known-answer: Crc32Update(0, "123456789", 9) == 0xCBF43926.
/// Table-driven, eight bytes per step (slicing-by-8); the output is the
/// same as the byte-at-a-time definition.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t len);

/// \brief The CRC-32 of A followed by B, from `crc_a` = CRC of A,
/// `crc_b` = CRC of B and `len_b` = |B| alone (zlib's crc32_combine):
///   Crc32Combine(Crc32Update(0, a, la), Crc32Update(0, b, lb), lb)
///       == Crc32Update(Crc32Update(0, a, la), b, lb)
/// Costs O(log len_b) 32-bit carry-less products and reads no data, so a
/// writer that already checksummed a payload can checksum a frame around it
/// without a second pass.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

/// 32-bit murmur3 finalizer, used where a cheap 32-bit mix suffices.
inline uint32_t Mix32(uint32_t x) {
  x ^= x >> 16;
  x *= 0x85ebca6bu;
  x ^= x >> 13;
  x *= 0xc2b2ae35u;
  x ^= x >> 16;
  return x;
}

}  // namespace dycuckoo

#endif  // DYCUCKOO_COMMON_HASH_H_
