// Shared infrastructure for the experiment harness: one binary per paper
// table/figure, each reproducing the corresponding rows/series.
//
// All binaries accept:
//   --scale=<0..1>    dataset scale relative to the paper (default per
//                     binary; chosen so the full suite runs in minutes on a
//                     laptop core — throughput *shape* is the deliverable)
//   --threads=<n>     simulated-warp worker threads (0 = default pool)
//   --seed=<n>        base RNG seed
//
// Output format: a '#'-prefixed header describing the experiment and the
// expected shape from the paper, then comma-separated rows.

#ifndef DYCUCKOO_BENCH_BENCH_COMMON_H_
#define DYCUCKOO_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

#include "baselines/cudpp_cuckoo.h"
#include "baselines/dycuckoo_adapter.h"
#include "baselines/megakv.h"
#include "baselines/slab_hash.h"
#include "baselines/table_interface.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/timer.h"
#include "gpusim/grid.h"
#include "workload/dataset.h"
#include "workload/dynamic_workload.h"

namespace dycuckoo {
namespace bench {

struct BenchArgs {
  double scale = 0.0;  // 0 = per-binary default
  unsigned threads = 0;
  uint64_t seed = 20260706;

  static BenchArgs Parse(int argc, char** argv, double default_scale) {
    BenchArgs args;
    args.scale = default_scale;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (std::strncmp(a, "--scale=", 8) == 0) {
        args.scale = std::atof(a + 8);
      } else if (std::strncmp(a, "--threads=", 10) == 0) {
        args.threads = static_cast<unsigned>(std::atoi(a + 10));
      } else if (std::strncmp(a, "--seed=", 7) == 0) {
        args.seed = static_cast<uint64_t>(std::atoll(a + 7));
      } else if (std::strcmp(a, "--help") == 0) {
        std::fprintf(stderr,
                     "flags: --scale=<f> --threads=<n> --seed=<n>\n");
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", a);
        std::exit(2);
      }
    }
    if (!(args.scale > 0.0 && args.scale <= 1.0)) {
      std::fprintf(stderr, "--scale must be in (0, 1]\n");
      std::exit(2);
    }
    gpusim::Grid::SetGlobalThreads(args.threads);
    return args;
  }
};

/// Checked status helper for harness code.
inline void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, st.ToString().c_str());
    std::exit(1);
  }
}

// ---------------------------------------------------------------------------
// Contender factories.  Dynamic-mode tables share the resize band; static
// tables are sized from the expected unique-key count and a target load.
// ---------------------------------------------------------------------------

struct DynamicConfig {
  double alpha = 0.30;  // paper Table III defaults
  double beta = 0.85;
  uint64_t initial_capacity = 64 * 1024;
  uint64_t seed = 1;
};

inline std::unique_ptr<HashTableInterface> MakeDyCuckooDynamic(
    const DynamicConfig& c) {
  DyCuckooOptions o;
  o.lower_bound = c.alpha;
  o.upper_bound = c.beta;
  o.initial_capacity = c.initial_capacity;
  o.seed = c.seed;
  std::unique_ptr<DyCuckooAdapter> t;
  CheckOk(DyCuckooAdapter::Create(o, &t), "DyCuckoo create");
  return t;
}

inline std::unique_ptr<HashTableInterface> MakeMegaKvDynamic(
    const DynamicConfig& c) {
  MegaKvOptions o;
  o.lower_bound = c.alpha;
  o.upper_bound = c.beta;
  o.initial_capacity = c.initial_capacity;
  o.seed = c.seed;
  std::unique_ptr<MegaKvTable> t;
  CheckOk(MegaKvTable::Create(o, &t), "MegaKV create");
  return t;
}

inline std::unique_ptr<HashTableInterface> MakeSlabDynamic(
    const DynamicConfig& c) {
  SlabHashOptions o;
  o.initial_capacity = c.initial_capacity;
  o.seed = c.seed;
  std::unique_ptr<SlabHashTable> t;
  CheckOk(SlabHashTable::Create(o, &t), "SlabHash create");
  return t;
}

struct StaticConfig {
  uint64_t expected_items = 0;
  double target_load = 0.85;  // theta
  uint64_t seed = 1;
};

inline std::unique_ptr<HashTableInterface> MakeDyCuckooStatic(
    const StaticConfig& c) {
  DyCuckooOptions o;
  o.auto_resize = false;
  o.initial_capacity = static_cast<uint64_t>(c.expected_items / c.target_load);
  o.seed = c.seed;
  std::unique_ptr<DyCuckooAdapter> t;
  CheckOk(DyCuckooAdapter::Create(o, &t), "DyCuckoo create");
  return t;
}

inline std::unique_ptr<HashTableInterface> MakeMegaKvStatic(
    const StaticConfig& c) {
  MegaKvOptions o;
  o.auto_resize = false;
  o.initial_capacity = static_cast<uint64_t>(c.expected_items / c.target_load);
  o.seed = c.seed;
  std::unique_ptr<MegaKvTable> t;
  CheckOk(MegaKvTable::Create(o, &t), "MegaKV create");
  return t;
}

inline std::unique_ptr<HashTableInterface> MakeCudppStatic(
    const StaticConfig& c) {
  CudppOptions o;
  o.capacity_slots = static_cast<uint64_t>(c.expected_items / c.target_load);
  o.expected_items = c.expected_items;
  o.seed = c.seed;
  std::unique_ptr<CudppCuckooTable> t;
  CheckOk(CudppCuckooTable::Create(o, &t), "CUDPP create");
  return t;
}

inline std::unique_ptr<HashTableInterface> MakeSlabStatic(
    const StaticConfig& c) {
  SlabHashOptions o;
  // Reserve slots for expected/theta entries, mirroring the other tables'
  // memory budget; chain length then rises with the target load.
  o.initial_capacity =
      static_cast<uint64_t>(c.expected_items / c.target_load);
  o.pool_reserve_factor = 1.0;
  o.seed = c.seed;
  std::unique_ptr<SlabHashTable> t;
  CheckOk(SlabHashTable::Create(o, &t), "SlabHash create");
  return t;
}

// ---------------------------------------------------------------------------
// Measurement drivers.
// ---------------------------------------------------------------------------

/// Device transactions (coalesced bucket reads/writes + atomics) between
/// two counter snapshots, per operation.  Wall-clock on the host measures
/// total instruction work; this is the GPU-faithful cost proxy (a 128-byte
/// bucket read and an 8-byte slot read are both one transaction there).
inline double TransactionsPerOp(const gpusim::SimCounters::Snapshot& before,
                                const gpusim::SimCounters::Snapshot& after,
                                uint64_t ops) {
  if (ops == 0) return 0.0;
  auto d = after - before;
  uint64_t txn = d.bucket_reads + d.bucket_writes + d.atomic_cas +
                 d.atomic_exch;
  return static_cast<double>(txn) / static_cast<double>(ops);
}

/// Inserts the whole dataset in `batch`-sized chunks; returns Mops and
/// optionally the device transactions per insert.
inline double MeasureStaticInsert(HashTableInterface* table,
                                  const workload::Dataset& data,
                                  double* txn_per_op = nullptr,
                                  uint64_t batch = 1 << 16) {
  auto before = gpusim::SimCounters::Get().Capture();
  Timer timer;
  for (uint64_t off = 0; off < data.size(); off += batch) {
    uint64_t len = std::min<uint64_t>(batch, data.size() - off);
    Status st = table->BulkInsert(
        std::span<const uint32_t>(data.keys.data() + off, len),
        std::span<const uint32_t>(data.values.data() + off, len));
    // Static contenders may report residual failures at extreme loads; the
    // paper counts these runs too, so keep going.
    if (!st.ok() && !st.IsInsertionFailure()) CheckOk(st, "static insert");
  }
  double seconds = timer.ElapsedSeconds();
  if (txn_per_op != nullptr) {
    *txn_per_op = TransactionsPerOp(
        before, gpusim::SimCounters::Get().Capture(), data.size());
  }
  return Mops(data.size(), seconds);
}

/// Issues `count` random finds drawn from the dataset keys; returns Mops
/// and optionally the device transactions per find.
inline double MeasureStaticFind(HashTableInterface* table,
                                const workload::Dataset& data, uint64_t count,
                                uint64_t seed, double* txn_per_op = nullptr,
                                bool expect_hits = true) {
  std::vector<uint32_t> queries(count);
  SplitMix64 rng(seed);
  for (uint64_t i = 0; i < count; ++i) {
    queries[i] = data.keys[rng.NextBounded(data.size())];
  }
  std::vector<uint32_t> out(count);
  std::vector<uint8_t> found(count);
  auto before = gpusim::SimCounters::Get().Capture();
  Timer timer;
  table->BulkFind(queries, out.data(), found.data());
  double seconds = timer.ElapsedSeconds();
  if (txn_per_op != nullptr) {
    *txn_per_op = TransactionsPerOp(
        before, gpusim::SimCounters::Get().Capture(), count);
  }
  uint64_t hits = 0;
  for (uint64_t i = 0; i < count; ++i) hits += found[i];
  if (expect_hits && hits < count / 2) {
    std::fprintf(stderr, "warning: %s find hit rate %.2f suspiciously low\n",
                 table->name().c_str(),
                 static_cast<double>(hits) / static_cast<double>(count));
  }
  return Mops(count, seconds);
}

/// Per-batch telemetry captured while replaying a dynamic timeline.
struct DynamicRunResult {
  double seconds = 0;
  uint64_t ops = 0;
  std::vector<double> filled_factor_after_batch;
  std::vector<uint64_t> memory_after_batch;

  double mops() const { return Mops(ops, seconds); }
};

/// Replays the batch timeline (insert, find, delete per batch — single-type
/// sub-batches, the paper's execution model) and measures wall time.
inline DynamicRunResult RunDynamicTimeline(
    HashTableInterface* table,
    const std::vector<workload::DynamicBatch>& batches) {
  DynamicRunResult result;
  result.ops = workload::TotalOps(batches);
  std::vector<uint32_t> out;
  std::vector<uint8_t> found;
  Timer timer;
  for (const auto& b : batches) {
    Status st = table->BulkInsert(b.insert_keys, b.insert_values);
    if (!st.ok() && !st.IsInsertionFailure()) CheckOk(st, "dynamic insert");
    out.resize(b.find_keys.size());
    found.resize(b.find_keys.size());
    table->BulkFind(b.find_keys, out.data(), found.data());
    CheckOk(table->BulkErase(b.delete_keys), "dynamic erase");
    result.filled_factor_after_batch.push_back(table->filled_factor());
    result.memory_after_batch.push_back(table->memory_bytes());
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

/// Repeats a dynamic run `reps` times on fresh tables and keeps the best
/// Mops (least scheduler interference on shared machines).
template <typename Factory>
double BestDynamicMops(int reps, Factory&& make_table,
                       const std::vector<workload::DynamicBatch>& batches) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto table = make_table();
    best = std::max(best, RunDynamicTimeline(table.get(), batches).mops());
  }
  return best;
}

/// Repeats a static insert+find measurement; returns best Mops of each and
/// (optionally) the device transactions per op from the last repetition.
template <typename Factory>
void BestStaticMops(int reps, Factory&& make_table,
                    const workload::Dataset& data, uint64_t finds,
                    uint64_t seed, double* insert_mops, double* find_mops,
                    double* insert_txn = nullptr,
                    double* find_txn = nullptr) {
  *insert_mops = 0.0;
  *find_mops = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto table = make_table();
    *insert_mops = std::max(
        *insert_mops, MeasureStaticInsert(table.get(), data, insert_txn));
    *find_mops = std::max(
        *find_mops,
        MeasureStaticFind(table.get(), data, finds, seed, find_txn));
  }
}

// ---------------------------------------------------------------------------
// Output helpers.
// ---------------------------------------------------------------------------

inline void PrintHeader(const std::string& title,
                        const std::string& expectation) {
  std::printf("# %s\n", title.c_str());
  std::printf("# paper shape: %s\n", expectation.c_str());
}

inline void PrintRow(const std::vector<std::string>& cells) {
  for (size_t i = 0; i < cells.size(); ++i) {
    std::printf("%s%s", i == 0 ? "" : ", ", cells[i].c_str());
  }
  std::printf("\n");
}

inline std::string Fmt(double v, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// The five paper datasets, generated at `scale`.
inline std::vector<workload::Dataset> AllDatasets(double scale,
                                                  uint64_t seed) {
  std::vector<workload::Dataset> out(5);
  const workload::DatasetId ids[5] = {
      workload::DatasetId::kTwitter, workload::DatasetId::kReddit,
      workload::DatasetId::kLineitem, workload::DatasetId::kCompany,
      workload::DatasetId::kRandom};
  for (int i = 0; i < 5; ++i) {
    CheckOk(workload::MakeDataset(ids[i], scale, seed + i, &out[i]),
            "dataset generation");
  }
  return out;
}

}  // namespace bench
}  // namespace dycuckoo

#endif  // DYCUCKOO_BENCH_BENCH_COMMON_H_
