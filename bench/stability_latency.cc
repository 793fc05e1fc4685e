// Performance stability (the paper's Section IV-B/VI-D argument): MegaKV's
// resize locks and rewrites the whole structure, so the batches that hit a
// resize stall; DyCuckoo's one-subtable resize spreads the work thin.
// Measured as the distribution of per-batch latencies over the dynamic
// timeline — means can hide what maxima reveal.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "service/scrubber.h"
#include "service/shard_router.h"
#include "service/sharded_server.h"

namespace dycuckoo {
namespace bench {
namespace {

struct LatencyProfile {
  double mean_ms;
  double p99_ms;
  double max_ms;
  double max_over_mean;
};

LatencyProfile Profile(HashTableInterface* table,
                       const std::vector<workload::DynamicBatch>& batches) {
  std::vector<double> ms;
  ms.reserve(batches.size());
  std::vector<uint32_t> out;
  std::vector<uint8_t> found;
  for (const auto& b : batches) {
    Timer timer;
    Status st = table->BulkInsert(b.insert_keys, b.insert_values);
    if (!st.ok() && !st.IsInsertionFailure()) CheckOk(st, "insert");
    out.resize(b.find_keys.size());
    found.resize(b.find_keys.size());
    table->BulkFind(b.find_keys, out.data(), found.data());
    CheckOk(table->BulkErase(b.delete_keys), "erase");
    ms.push_back(timer.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  double sum = 0;
  for (double m : ms) sum += m;
  LatencyProfile p;
  p.mean_ms = sum / static_cast<double>(ms.size());
  p.p99_ms = ms[std::min(ms.size() - 1,
                         static_cast<size_t>(ms.size() * 0.99))];
  p.max_ms = ms.back();
  p.max_over_mean = p.max_ms / std::max(p.mean_ms, 1e-9);
  return p;
}

// --- Scrub-verify overhead ------------------------------------------------
//
// The integrity scrubber (service/scrubber.h) re-verifies every slot's
// 8-bit tag as it sweeps, amortized across the serving loop exactly like
// a TableServer would run it: a bounded slice after every batch, sized so
// a full pass completes every ~8 batches.  The delta against the
// unscrubbed baseline is the steady-state cost of silent-corruption
// detection, printed as each dataset's "scrub-overhead" row.

struct ScrubOverhead {
  LatencyProfile baseline;
  LatencyProfile scrubbed;
  double overhead_pct;     // scrubbed mean over baseline mean, minus one
  uint64_t scrub_passes;
  uint64_t corrupted_slots;  // must be 0: clean run, zero false positives
};

ScrubOverhead ProfileScrubOverhead(
    const DynamicConfig& cfg,
    const std::vector<workload::DynamicBatch>& batches) {
  ScrubOverhead r;
  {
    auto baseline = MakeDyCuckooDynamic(cfg);
    r.baseline = Profile(baseline.get(), batches);
  }

  DyCuckooOptions o;
  o.lower_bound = cfg.alpha;
  o.upper_bound = cfg.beta;
  o.initial_capacity = cfg.initial_capacity;
  o.seed = cfg.seed;
  std::unique_ptr<DyCuckooAdapter> adapter;
  CheckOk(DyCuckooAdapter::Create(o, &adapter), "DyCuckoo create");
  service::OnlineScrubber<uint32_t, uint32_t> scrubber(adapter->table());

  std::vector<double> ms;
  ms.reserve(batches.size());
  std::vector<uint32_t> out;
  std::vector<uint8_t> found;
  for (const auto& b : batches) {
    // Slice size tracks the live table so the pass cadence survives
    // resizes: ~1/8 of the current buckets per batch.
    uint64_t buckets = 0;
    for (int i = 0; i < adapter->table()->num_subtables(); ++i) {
      buckets += adapter->table()->subtable_buckets(i);
    }
    const uint64_t slice = std::max<uint64_t>(1, buckets / 8);
    Timer timer;
    Status st = adapter->BulkInsert(b.insert_keys, b.insert_values);
    if (!st.ok() && !st.IsInsertionFailure()) CheckOk(st, "insert");
    out.resize(b.find_keys.size());
    found.resize(b.find_keys.size());
    adapter->BulkFind(b.find_keys, out.data(), found.data());
    CheckOk(adapter->BulkErase(b.delete_keys), "erase");
    // The bench measures the slice's latency, not its findings.
    DYCUCKOO_IGNORE_STATUS(scrubber.Step(slice));
    ms.push_back(timer.ElapsedMillis());
  }
  std::sort(ms.begin(), ms.end());
  double sum = 0;
  for (double m : ms) sum += m;
  r.scrubbed.mean_ms = sum / static_cast<double>(ms.size());
  r.scrubbed.p99_ms =
      ms[std::min(ms.size() - 1, static_cast<size_t>(ms.size() * 0.99))];
  r.scrubbed.max_ms = ms.back();
  r.scrubbed.max_over_mean =
      r.scrubbed.max_ms / std::max(r.scrubbed.mean_ms, 1e-9);
  r.overhead_pct =
      (r.scrubbed.mean_ms / std::max(r.baseline.mean_ms, 1e-9) - 1.0) * 100.0;
  r.scrub_passes = scrubber.full_passes();
  r.corrupted_slots = scrubber.totals().corrupted_slots;
  return r;
}

// --- Sharded tail latency -------------------------------------------------
//
// The fault-isolation argument has a latency corollary: with the keyspace
// partitioned across N independent tables (service::ShardRouter), a resize
// stalls only the 1/N of each batch routed to the resizing shard.  Per-
// shard per-batch latencies quantify that: the p99 of any one shard sits
// well below the monolithic table's, because no shard ever rehashes the
// whole keyspace at once.  Shard count comes from DYCUCKOO_BENCH_SHARDS
// (default 4, matching the CI chaos matrix).

struct ShardLatency {
  uint32_t shard;
  double mean_ms;
  double p99_ms;
  double max_ms;
};

std::vector<ShardLatency> ProfileSharded(
    uint32_t num_shards, uint64_t seed,
    const DynamicConfig& base_cfg,
    const std::vector<workload::DynamicBatch>& batches) {
  service::ShardRouter router(num_shards, seed);
  std::vector<std::unique_ptr<HashTableInterface>> tables;
  for (uint32_t s = 0; s < num_shards; ++s) {
    DynamicConfig cfg = base_cfg;
    cfg.initial_capacity =
        std::max<uint64_t>(1024, base_cfg.initial_capacity / num_shards);
    cfg.seed = base_cfg.seed + s;
    tables.push_back(MakeDyCuckooDynamic(cfg));
  }

  std::vector<std::vector<double>> ms(num_shards);
  std::vector<uint32_t> ik, iv, fk, dk, out;
  std::vector<uint8_t> found;
  for (const auto& b : batches) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      ik.clear();
      iv.clear();
      fk.clear();
      dk.clear();
      for (size_t i = 0; i < b.insert_keys.size(); ++i) {
        if (router.ShardOf(b.insert_keys[i]) == s) {
          ik.push_back(b.insert_keys[i]);
          iv.push_back(b.insert_values[i]);
        }
      }
      for (uint32_t k : b.find_keys) {
        if (router.ShardOf(k) == s) fk.push_back(k);
      }
      for (uint32_t k : b.delete_keys) {
        if (router.ShardOf(k) == s) dk.push_back(k);
      }
      Timer timer;
      Status st = tables[s]->BulkInsert(ik, iv);
      if (!st.ok() && !st.IsInsertionFailure()) CheckOk(st, "shard insert");
      out.resize(fk.size());
      found.resize(fk.size());
      tables[s]->BulkFind(fk, out.data(), found.data());
      CheckOk(tables[s]->BulkErase(dk), "shard erase");
      ms[s].push_back(timer.ElapsedMillis());
    }
  }

  std::vector<ShardLatency> profiles;
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::sort(ms[s].begin(), ms[s].end());
    double sum = 0;
    for (double m : ms[s]) sum += m;
    ShardLatency p;
    p.shard = s;
    p.mean_ms = sum / static_cast<double>(ms[s].size());
    p.p99_ms = ms[s][std::min(ms[s].size() - 1,
                              static_cast<size_t>(ms[s].size() * 0.99))];
    p.max_ms = ms[s].back();
    profiles.push_back(p);
  }
  return profiles;
}

// --- Mid-reshard latency --------------------------------------------------
//
// Elastic resharding's latency claim (docs/robustness.md "Elastic
// resharding"): a live split migrates one hash-range chunk at a time, so
// serving latency during the migration should degrade by a bounded,
// chunk-sized amount — not the stop-the-world rehash a full re-partition
// would cost.  Measured against a real ShardedTableServer: per-round
// request latency while quiescent, while a split N -> 2N is in flight,
// and after it finalizes.  The only admissible rejections mid-reshard are
// writes to the one migrating chunk (counted as blocked_writes).

struct ReshardLatency {
  double mean_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;
};

ReshardLatency SummarizeRounds(std::vector<double> ms) {
  ReshardLatency r;
  if (ms.empty()) return r;
  std::sort(ms.begin(), ms.end());
  double sum = 0;
  for (double m : ms) sum += m;
  r.mean_ms = sum / static_cast<double>(ms.size());
  r.p99_ms = ms[std::min(ms.size() - 1,
                         static_cast<size_t>(ms.size() * 0.99))];
  r.max_ms = ms.back();
  return r;
}

struct ReshardProfile {
  uint32_t from_shards = 0;
  uint32_t to_shards = 0;
  ReshardLatency quiescent;
  ReshardLatency mid_reshard;
  ReshardLatency post;
  uint64_t reshard_rounds = 0;   // serving rounds with the split in flight
  uint64_t blocked_writes = 0;   // reshard write-window rejections
  bool completed = false;
};

using ShardedSrv = service::ShardedTableServer<uint32_t, uint32_t>;

/// One serving round: a burst of single-op requests (3:1 write:read),
/// drained to idle (which also advances an in-flight migration), all
/// responses retired.  Returns the wall-clock cost of the round.
double ServeReshardRound(ShardedSrv* srv, SplitMix64* rng,
                         uint64_t* blocked) {
  constexpr uint32_t kKeySpace = 4096;
  constexpr int kOpsPerRound = 32;
  Timer timer;
  std::vector<uint64_t> ids;
  ids.reserve(kOpsPerRound);
  for (int i = 0; i < kOpsPerRound; ++i) {
    const uint32_t key = 1 + static_cast<uint32_t>(rng->Next() % kKeySpace);
    ShardedSrv::Op op =
        (rng->Next() % 4 != 0)
            ? ShardedSrv::Op{ShardedSrv::OpType::kInsert, key,
                             static_cast<uint32_t>(rng->Next())}
            : ShardedSrv::Op{ShardedSrv::OpType::kFind, key, 0};
    ShardedSrv::Request req;
    req.ops.push_back(op);
    ids.push_back(srv->Submit(std::move(req)));
  }
  srv->RunUntilIdle();
  for (uint64_t id : ids) {
    ShardedSrv::Response resp;
    if (srv->TakeResponse(id, &resp) && !resp.status.ok() &&
        resp.status.FindDetail("reshard_chunk") != nullptr) {
      ++*blocked;
    }
  }
  return timer.ElapsedMillis();
}

ReshardProfile ProfileMidReshard(uint32_t from_shards, uint64_t seed) {
  ReshardProfile r;
  r.from_shards = from_shards;
  r.to_shards = from_shards * 2;

  gpusim::DeviceArena arena(0);
  gpusim::Grid grid(1);
  DyCuckooOptions topt;
  topt.arena = &arena;
  topt.grid = &grid;
  topt.initial_capacity = 16 * 1024;
  topt.seed = seed;
  ShardedSrv::Options options;
  options.num_shards = from_shards;
  options.durability.checkpoint_wal_bytes = 0;
  options.durability.checkpoint_wal_records = 48;

  std::unique_ptr<ShardedSrv> srv;
  CheckOk(ShardedSrv::Create(topt, options, &srv), "sharded create");

  SplitMix64 rng(seed);
  constexpr int kWarmupRounds = 64;
  constexpr int kMeasuredRounds = 192;
  constexpr int kMaxReshardRounds = 4096;
  for (int i = 0; i < kWarmupRounds; ++i) {
    ServeReshardRound(srv.get(), &rng, &r.blocked_writes);
  }
  std::vector<double> quiet;
  for (int i = 0; i < kMeasuredRounds; ++i) {
    quiet.push_back(ServeReshardRound(srv.get(), &rng, &r.blocked_writes));
  }
  r.blocked_writes = 0;  // only mid-reshard rejections count
  CheckOk(srv->BeginReshard(r.to_shards), "begin reshard");
  std::vector<double> mid;
  while (srv->resharder().active() &&
         mid.size() < static_cast<size_t>(kMaxReshardRounds)) {
    mid.push_back(ServeReshardRound(srv.get(), &rng, &r.blocked_writes));
  }
  r.completed = !srv->resharder().active();
  r.reshard_rounds = mid.size();
  std::vector<double> post;
  for (int i = 0; i < kMeasuredRounds; ++i) {
    post.push_back(ServeReshardRound(srv.get(), &rng, &r.blocked_writes));
  }
  r.quiescent = SummarizeRounds(std::move(quiet));
  r.mid_reshard = SummarizeRounds(std::move(mid));
  r.post = SummarizeRounds(std::move(post));
  return r;
}

uint32_t BenchShardsFromEnv() {
  const char* env = std::getenv("DYCUCKOO_BENCH_SHARDS");
  if (env == nullptr || *env == '\0') return 4;
  unsigned long n = std::strtoul(env, nullptr, 0);
  return n == 0 ? 4 : static_cast<uint32_t>(n);
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv, /*default_scale=*/0.002);
  auto datasets = AllDatasets(args.scale, args.seed);
  const uint32_t num_shards = BenchShardsFromEnv();

  PrintHeader("Stability: per-batch latency distribution over the dynamic "
              "timeline (r=0.2, scale=" + Fmt(args.scale, 4) + ")",
              "MegaKV's full-rehash batches spike the tail (large "
              "max/mean); DyCuckoo's one-subtable resizes keep batches "
              "even");
  PrintRow({"dataset", "table", "mean_ms", "p99_ms", "max_ms", "max/mean"});

  for (const auto& data : datasets) {
    workload::DynamicWorkloadOptions wo;
    wo.batch_size =
        std::max<uint64_t>(1000, static_cast<uint64_t>(1e6 * args.scale));
    wo.seed = args.seed;
    std::vector<workload::DynamicBatch> batches;
    CheckOk(workload::BuildDynamicWorkload(data, wo, &batches), "workload");

    DynamicConfig cfg;
    cfg.initial_capacity = wo.batch_size;
    cfg.seed = args.seed;

    auto megakv = MakeMegaKvDynamic(cfg);
    LatencyProfile pm = Profile(megakv.get(), batches);
    auto dy = MakeDyCuckooDynamic(cfg);
    LatencyProfile pd = Profile(dy.get(), batches);

    PrintRow({data.name, "MegaKV", Fmt(pm.mean_ms, 3), Fmt(pm.p99_ms, 3),
              Fmt(pm.max_ms, 3), Fmt(pm.max_over_mean, 1)});
    PrintRow({data.name, "DyCuckoo", Fmt(pd.mean_ms, 3), Fmt(pd.p99_ms, 3),
              Fmt(pd.max_ms, 3), Fmt(pd.max_over_mean, 1)});

    const ScrubOverhead scrub = ProfileScrubOverhead(cfg, batches);
    PrintRow({data.name, "DyCuckoo+scrub", Fmt(scrub.scrubbed.mean_ms, 3),
              Fmt(scrub.scrubbed.p99_ms, 3), Fmt(scrub.scrubbed.max_ms, 3),
              Fmt(scrub.scrubbed.max_over_mean, 1)});
    PrintRow({data.name, "scrub-overhead",
              "overhead_pct=" + Fmt(scrub.overhead_pct, 2),
              "scrub_passes=" + std::to_string(scrub.scrub_passes),
              "corrupted_slots=" + std::to_string(scrub.corrupted_slots)});

    for (const ShardLatency& p :
         ProfileSharded(num_shards, args.seed, cfg, batches)) {
      PrintRow({data.name,
                "DyCuckoo-shard" + std::to_string(p.shard) + "/" +
                    std::to_string(num_shards),
                Fmt(p.mean_ms, 3), Fmt(p.p99_ms, 3), Fmt(p.max_ms, 3),
                Fmt(p.max_ms / std::max(p.mean_ms, 1e-9), 1)});
    }
  }
  std::printf("# sharded rows: %u shards (override with "
              "DYCUCKOO_BENCH_SHARDS)\n",
              num_shards);

  ReshardProfile rp = ProfileMidReshard(num_shards, args.seed);
  PrintRow({"reshard", "quiescent", Fmt(rp.quiescent.mean_ms, 3),
            Fmt(rp.quiescent.p99_ms, 3), Fmt(rp.quiescent.max_ms, 3),
            Fmt(rp.quiescent.max_ms / std::max(rp.quiescent.mean_ms, 1e-9),
                1)});
  PrintRow({"reshard",
            "split " + std::to_string(rp.from_shards) + "->" +
                std::to_string(rp.to_shards),
            Fmt(rp.mid_reshard.mean_ms, 3), Fmt(rp.mid_reshard.p99_ms, 3),
            Fmt(rp.mid_reshard.max_ms, 3),
            Fmt(rp.mid_reshard.max_ms /
                    std::max(rp.mid_reshard.mean_ms, 1e-9),
                1)});
  PrintRow({"reshard", "post-split", Fmt(rp.post.mean_ms, 3),
            Fmt(rp.post.p99_ms, 3), Fmt(rp.post.max_ms, 3),
            Fmt(rp.post.max_ms / std::max(rp.post.mean_ms, 1e-9), 1)});
  std::printf("# reshard: %llu rounds with the split in flight, %llu "
              "blocked writes, completed=%s\n",
              static_cast<unsigned long long>(rp.reshard_rounds),
              static_cast<unsigned long long>(rp.blocked_writes),
              rp.completed ? "true" : "false");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dycuckoo

int main(int argc, char** argv) { return dycuckoo::bench::Main(argc, argv); }
