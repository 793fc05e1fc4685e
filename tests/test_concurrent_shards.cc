// Concurrent shard Steps under an oracle.
//
// On a multi-worker grid the sharded server runs its shards' micro-batches
// as overlapping grid tasks.  A seeded stream of mixed spanning requests —
// keys distinct within each micro-batch, so every op's outcome is fixed by
// the batches before it — must answer exactly what a shadow map predicts.
// At the end every shard's live table must equal what recovery rebuilds
// from that shard's durable images.
//
// Shard count is DYCUCKOO_SHARDS (default 4) and the seed is
// DYCUCKOO_CHAOS_SEED, so CI sweeps both.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "durability/sharded.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "service/sharded_server.h"
#include "test_util.h"

namespace dycuckoo {
namespace service {
namespace {

using Sharded = ShardedTableServer<uint32_t, uint32_t>;
using OpType = Sharded::OpType;

constexpr int kRounds = 120;
constexpr int kRequestsPerRound = 8;
constexpr uint32_t kKeySpace = 20000;

uint32_t NumShardsFromEnv() {
  const char* env = std::getenv("DYCUCKOO_SHARDS");
  if (env == nullptr || *env == '\0') return 4;
  unsigned long n = std::strtoul(env, nullptr, 0);
  return n == 0 ? 4 : static_cast<uint32_t>(n);
}

uint64_t Digest(std::vector<std::pair<uint32_t, uint32_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = 1469598103934665603ull;
  for (const auto& [k, v] : pairs) {
    const uint64_t x = (static_cast<uint64_t>(k) << 32) | v;
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(ConcurrentShards, ResponsesMatchShadowAndLiveMatchesRecovery) {
  const uint64_t seed = testing::ChaosSeedFromEnv(0xC0C0A22);
  const uint32_t n = NumShardsFromEnv();
  SCOPED_TRACE(testing::ChaosReproLine("tests/test_concurrent_shards", seed));

  gpusim::DeviceArena arena(0);
  gpusim::Grid grid(4);
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  topt.initial_capacity = 16 * 1024;
  Sharded::Options options;
  options.num_shards = n;
  options.shard.scrub_buckets_per_step = 8;
  options.durability.checkpoint_wal_bytes = 0;
  options.durability.checkpoint_wal_records = 256;
  std::unique_ptr<Sharded> srv;
  ASSERT_TRUE(Sharded::Create(topt, options, &srv).ok());

  SplitMix64 rng(seed);
  std::unordered_map<uint32_t, uint32_t> shadow;
  uint64_t finds_hit = 0, erases_hit = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::unordered_set<uint32_t> used;
    std::vector<Sharded::Request> sent;
    std::vector<uint64_t> ids;
    for (int r = 0; r < kRequestsPerRound; ++r) {
      Sharded::Request req;
      const int ops = 1 + static_cast<int>(rng.Next() % 48);
      while (static_cast<int>(req.ops.size()) < ops) {
        const uint32_t key = 1 + static_cast<uint32_t>(rng.Next() % kKeySpace);
        if (!used.insert(key).second) continue;
        const uint64_t roll = rng.Next() % 10;
        const OpType type = roll < 5   ? OpType::kInsert
                            : roll < 7 ? OpType::kErase
                                       : OpType::kFind;
        req.ops.push_back(
            Sharded::Op{type, key, static_cast<uint32_t>(rng.Next())});
      }
      sent.push_back(req);
      ids.push_back(srv->Submit(std::move(req)));
    }
    srv->RunUntilIdle();
    for (size_t r = 0; r < ids.size(); ++r) {
      Sharded::Response resp;
      ASSERT_TRUE(srv->TakeResponse(ids[r], &resp)) << "round " << round;
      ASSERT_TRUE(resp.status.ok())
          << "round " << round << ": " << resp.status.ToString();
      ASSERT_EQ(resp.results.size(), sent[r].ops.size());
      for (size_t i = 0; i < sent[r].ops.size(); ++i) {
        const Sharded::Op& op = sent[r].ops[i];
        const auto it = shadow.find(op.key);
        const bool present = it != shadow.end();
        switch (op.type) {
          case OpType::kFind:
            ASSERT_EQ(resp.results[i].hit, present ? 1u : 0u)
                << "round " << round << " find " << op.key;
            if (present) {
              ASSERT_EQ(resp.results[i].value, it->second)
                  << "round " << round << " find " << op.key;
              ++finds_hit;
            }
            break;
          case OpType::kErase:
            ASSERT_EQ(resp.results[i].hit, present ? 1u : 0u)
                << "round " << round << " erase " << op.key;
            if (present) {
              shadow.erase(it);
              ++erases_hit;
            }
            break;
          case OpType::kInsert:
            shadow[op.key] = op.value;
            break;
        }
      }
    }
  }
  EXPECT_GT(finds_hit, 0u);
  EXPECT_GT(erases_hit, 0u);
  EXPECT_EQ(srv->total_size(), shadow.size());

  // The live tables are exactly what the shards' durable images rebuild.
  durability::ShardManifest manifest;
  ASSERT_TRUE(
      durability::ShardManifest::Decode(srv->ManifestImage(), &manifest).ok());
  std::vector<durability::ShardRecoveryOutcome<uint32_t, uint32_t>> outcomes;
  ASSERT_TRUE((durability::RecoverAllShards<uint32_t, uint32_t>(
                   manifest, srv->DurableImages(),
                   srv->ShardTableOptionsList(), options.router_seed,
                   &outcomes, /*max_parallel=*/1))
                  .ok());
  ASSERT_EQ(outcomes.size(), n);
  std::vector<std::pair<uint32_t, uint32_t>> all;
  for (uint32_t s = 0; s < n; ++s) {
    ASSERT_TRUE(outcomes[s].status.ok()) << outcomes[s].status.ToString();
    const auto live = srv->shard_server(s)->table()->Dump();
    EXPECT_EQ(Digest(live), Digest(outcomes[s].table->Dump()))
        << "shard " << s << ": live table != Recover(images)";
    all.insert(all.end(), live.begin(), live.end());
  }
  EXPECT_EQ(Digest(all), Digest({shadow.begin(), shadow.end()}))
      << "live tables != shadow model";
}

}  // namespace
}  // namespace service
}  // namespace dycuckoo
