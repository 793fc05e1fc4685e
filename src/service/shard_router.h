// ShardRouter: the pure key -> shard function a sharded deployment lives
// or dies by.
//
// Routing invariants (enforced, not aspirational):
//   1. Determinism: ShardOf(key) depends only on (key, num_shards, seed)
//      — plus, during a live reshard, the per-chunk cutover bitmap, which
//      is itself durable state (the migration journal).  The same state
//      routes the same way on every host, every restart, and inside
//      recovery replay — which is why the routing identity is recorded in
//      the durability::ShardManifest and validated before any WAL replay.
//   2. Totality: every key routes to exactly one shard; there is no
//      "unowned" key and no key owned by two shards.  Cross-shard requests
//      are therefore trivially partitionable: each op goes to precisely
//      one shard's portion of the request.
//   3. Independence from occupancy: routing never consults table state,
//      so a quarantined or resizing shard keeps its keyspace — keys are
//      never silently re-homed onto healthy shards (that would break
//      recovery and turn a fault domain into a consistency bug).
//
// The map is Mix64(key ^ seed) % num_shards: the finalizer's avalanche
// decorrelates shard choice from the table's own bucket hashing (which
// mixes with different constants), so one shard does not concentrate the
// keys of one bucket.
//
// Two-generation routing (elastic resharding): a live split (N -> 2N) or
// merge (2N -> N) migrates the keyspace in fixed hash-range chunks,
// chunk = Mix64(key ^ seed) % num_chunks.  Because num_chunks is a
// multiple of BOTH shard counts, (h % num_chunks) % N == h % N — chunking
// refines the existing map without changing it, every chunk lives wholly
// on one shard in each generation, and a migration that never starts is
// byte-for-byte the old router.  During a migration a key routes by the
// NEW generation iff its chunk's cutover bit is set:
//
//   ShardOf(key) = cut[chunk] ? chunk % to_shards : chunk % num_shards
//
// The bits flip one chunk at a time as service::Resharder copies, WALs a
// cutover record, and garbage-collects — so at every instant the router
// is total and deterministic, and recovery can rebuild the exact bitmap
// from the migration journal plus the kReshardCutover records.

#ifndef DYCUCKOO_SERVICE_SHARD_ROUTER_H_
#define DYCUCKOO_SERVICE_SHARD_ROUTER_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"

namespace dycuckoo {
namespace service {

class ShardRouter {
 public:
  ShardRouter(uint32_t num_shards, uint64_t seed)
      : num_shards_(num_shards == 0 ? 1 : num_shards), seed_(seed) {}

  template <typename Key>
  uint64_t HashOf(Key key) const {
    return Mix64(static_cast<uint64_t>(key) ^ seed_);
  }

  template <typename Key>
  uint32_t ShardOf(Key key) const {
    const uint64_t h = HashOf(key);
    if (!migrating_) return Mod(h, num_shards_);
    const uint32_t c = static_cast<uint32_t>(h % num_chunks_);
    return cut_[c] ? c % to_shards_ : c % num_shards_;
  }

  /// ShardOf(key_of(i)) for i in [0, n), into out[0, n).
  template <typename KeyOf>
  void ShardsOf(size_t n, KeyOf key_of, uint32_t* out) const {
    if (migrating_) {
      for (size_t i = 0; i < n; ++i) out[i] = ShardOf(key_of(i));
      return;
    }
    // Locals: stores to `out` cannot then alias the routing parameters.
    const uint64_t seed = seed_;
    const uint32_t d = num_shards_;
    for (size_t i = 0; i < n; ++i) {
      out[i] = Mod(Mix64(static_cast<uint64_t>(key_of(i)) ^ seed), d);
    }
  }

  /// The key's migration chunk.  Only meaningful while migrating() (the
  /// chunk domain is the active migration's num_chunks).
  template <typename Key>
  uint32_t ChunkOf(Key key) const {
    return static_cast<uint32_t>(HashOf(key) % num_chunks_);
  }

  // --- Two-generation migration state -----------------------------------

  /// Arms the two-generation map: old generation num_shards(), new
  /// generation `to_shards`, all chunks initially routing old.
  /// `num_chunks` must be a positive multiple of both shard counts so the
  /// chunk layer refines the plain modulo map instead of changing it.
  Status BeginMigration(uint32_t to_shards, uint32_t num_chunks) {
    if (migrating_) {
      return Status::InvalidArgument("router: migration already active");
    }
    if (to_shards == 0 || num_chunks == 0 ||
        num_chunks % num_shards_ != 0 || num_chunks % to_shards != 0) {
      return Status::InvalidArgument(
          "router: num_chunks must be a positive multiple of both shard "
          "counts");
    }
    to_shards_ = to_shards;
    num_chunks_ = num_chunks;
    cut_.assign(num_chunks, false);
    migrating_ = true;
    return Status::OK();
  }

  /// Routes `chunk` by the new generation from now on.  Idempotent.
  void SetCutOver(uint32_t chunk) { cut_[chunk] = true; }

  bool cut_over(uint32_t chunk) const { return migrating_ && cut_[chunk]; }

  /// Migration complete: the new generation becomes THE generation.
  void FinishMigration() {
    num_shards_ = to_shards_;
    migrating_ = false;
    to_shards_ = 0;
    num_chunks_ = 0;
    cut_.clear();
  }

  /// Abandons a migration that cut nothing over (routing never changed,
  /// so dropping the state is invisible to every key).
  void AbortMigration() {
    migrating_ = false;
    to_shards_ = 0;
    num_chunks_ = 0;
    cut_.clear();
  }

  bool migrating() const { return migrating_; }
  uint32_t num_shards() const { return num_shards_; }
  uint32_t to_shards() const { return to_shards_; }
  uint32_t num_chunks() const { return num_chunks_; }
  uint64_t seed() const { return seed_; }

 private:
  // h % d.  Shard counts are usually powers of two (a split doubles the
  // count and a merge halves it), where a mask spares the division.
  static uint32_t Mod(uint64_t h, uint32_t d) {
    return static_cast<uint32_t>((d & (d - 1)) == 0 ? h & (d - 1) : h % d);
  }

  uint32_t num_shards_;
  uint64_t seed_;
  bool migrating_ = false;
  uint32_t to_shards_ = 0;
  uint32_t num_chunks_ = 0;
  std::vector<bool> cut_;  // per chunk: route by the new generation?
};

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_SHARD_ROUTER_H_
