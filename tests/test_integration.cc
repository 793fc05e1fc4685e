// Cross-module integration tests: the full dynamic workload driven through
// every contender via the uniform interface, checked against a host model,
// plus the paper's headline memory claim in miniature.

#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/cudpp_cuckoo.h"
#include "baselines/dycuckoo_adapter.h"
#include "baselines/megakv.h"
#include "baselines/slab_hash.h"
#include "baselines/table_interface.h"
#include "workload/dataset.h"
#include "workload/dynamic_workload.h"

namespace dycuckoo {
namespace {

using workload::BuildDynamicWorkload;
using workload::Dataset;
using workload::DatasetId;
using workload::DynamicBatch;
using workload::DynamicWorkloadOptions;
using workload::MakeDataset;

std::vector<DynamicBatch> SmallWorkload(DatasetId id = DatasetId::kTwitter,
                                        double delete_ratio = 0.2) {
  Dataset d;
  Status st = MakeDataset(id, 0.002, 17, &d);
  EXPECT_TRUE(st.ok());
  DynamicWorkloadOptions o;
  o.batch_size = 10000;
  o.delete_ratio = delete_ratio;
  std::vector<DynamicBatch> batches;
  st = BuildDynamicWorkload(d, o, &batches);
  EXPECT_TRUE(st.ok());
  return batches;
}

/// Runs the workload through `table`, mirroring it into a host model and
/// checking sizes after every batch and full contents at the end.
///
/// Insert batches are deduplicated first: a batch containing the same key
/// twice has racy last-writer semantics on the device (as in the paper), so
/// the deterministic harness keeps only the last occurrence.
void RunDifferential(HashTableInterface* table,
                     const std::vector<DynamicBatch>& batches) {
  std::unordered_map<uint32_t, uint32_t> model;
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const auto& raw = batches[bi];
    DynamicBatch b = raw;
    {
      std::unordered_map<uint32_t, uint32_t> last;
      for (size_t i = 0; i < raw.insert_keys.size(); ++i) {
        last[raw.insert_keys[i]] = raw.insert_values[i];
      }
      b.insert_keys.clear();
      b.insert_values.clear();
      for (const auto& [k, v] : last) {
        b.insert_keys.push_back(k);
        b.insert_values.push_back(v);
      }
    }
    // Deterministic-semantics split: update-only batches perform no
    // evictions, so resident keys cannot be duplicated mid-flight.
    std::vector<uint32_t> nk, nv, uk, uv;
    for (size_t i = 0; i < b.insert_keys.size(); ++i) {
      if (model.count(b.insert_keys[i])) {
        uk.push_back(b.insert_keys[i]);
        uv.push_back(b.insert_values[i]);
      } else {
        nk.push_back(b.insert_keys[i]);
        nv.push_back(b.insert_values[i]);
      }
      model[b.insert_keys[i]] = b.insert_values[i];
    }
    ASSERT_TRUE(table->BulkInsert(nk, nv).ok())
        << table->name() << " batch " << bi;
    ASSERT_TRUE(table->BulkInsert(uk, uv).ok())
        << table->name() << " batch " << bi;
    std::vector<uint8_t> found(b.find_keys.size());
    std::vector<uint32_t> out(b.find_keys.size());
    table->BulkFind(b.find_keys, out.data(), found.data());
    for (size_t i = 0; i < b.find_keys.size(); ++i) {
      auto it = model.find(b.find_keys[i]);
      ASSERT_EQ(found[i] != 0, it != model.end())
          << table->name() << " find mismatch batch " << bi;
      if (found[i]) {
        ASSERT_EQ(out[i], it->second);
      }
    }
    uint64_t erased = 0;
    ASSERT_TRUE(table->BulkErase(b.delete_keys, &erased).ok());
    uint64_t model_erased = 0;
    for (uint32_t k : b.delete_keys) model_erased += model.erase(k);
    ASSERT_EQ(erased, model_erased) << table->name() << " batch " << bi;
    ASSERT_EQ(table->size(), model.size()) << table->name() << " batch " << bi;
  }
}

TEST(IntegrationTest, DyCuckooSurvivesFullDynamicWorkload) {
  std::unique_ptr<DyCuckooAdapter> t;
  DyCuckooOptions o;
  o.initial_capacity = 4096;
  ASSERT_TRUE(DyCuckooAdapter::Create(o, &t).ok());
  RunDifferential(t.get(), SmallWorkload());
  EXPECT_TRUE(t->table()->Validate().ok());
}

TEST(IntegrationTest, MegaKvSurvivesFullDynamicWorkload) {
  std::unique_ptr<MegaKvTable> t;
  MegaKvOptions o;
  o.initial_capacity = 4096;
  ASSERT_TRUE(MegaKvTable::Create(o, &t).ok());
  RunDifferential(t.get(), SmallWorkload());
}

TEST(IntegrationTest, SlabHashSurvivesFullDynamicWorkload) {
  std::unique_ptr<SlabHashTable> t;
  SlabHashOptions o;
  o.initial_capacity = 4096;
  ASSERT_TRUE(SlabHashTable::Create(o, &t).ok());
  RunDifferential(t.get(), SmallWorkload());
}

TEST(IntegrationTest, DeleteHeavyWorkloadAllContenders) {
  auto batches = SmallWorkload(DatasetId::kCompany, /*delete_ratio=*/0.5);
  {
    std::unique_ptr<DyCuckooAdapter> t;
    DyCuckooOptions o;
    o.initial_capacity = 4096;
    ASSERT_TRUE(DyCuckooAdapter::Create(o, &t).ok());
    RunDifferential(t.get(), batches);
  }
  {
    std::unique_ptr<SlabHashTable> t;
    SlabHashOptions o;
    o.initial_capacity = 4096;
    ASSERT_TRUE(SlabHashTable::Create(o, &t).ok());
    RunDifferential(t.get(), batches);
  }
}

TEST(IntegrationTest, DyCuckooBoundsFilledFactorWhereSlabDoesNot) {
  // Miniature of the paper's Figure 11: run a delete-heavy timeline and
  // compare end-state filled factors.
  auto batches = SmallWorkload(DatasetId::kCompany, /*delete_ratio=*/0.5);

  std::unique_ptr<DyCuckooAdapter> dy;
  DyCuckooOptions dyo;
  dyo.initial_capacity = 4096;
  ASSERT_TRUE(DyCuckooAdapter::Create(dyo, &dy).ok());

  std::unique_ptr<SlabHashTable> slab;
  SlabHashOptions so;
  so.initial_capacity = 4096;
  ASSERT_TRUE(SlabHashTable::Create(so, &slab).ok());

  for (const auto& b : batches) {
    ASSERT_TRUE(dy->BulkInsert(b.insert_keys, b.insert_values).ok());
    ASSERT_TRUE(slab->BulkInsert(b.insert_keys, b.insert_values).ok());
    ASSERT_TRUE(dy->BulkErase(b.delete_keys).ok());
    ASSERT_TRUE(slab->BulkErase(b.delete_keys).ok());
  }
  ASSERT_EQ(dy->size(), slab->size());
  if (dy->size() > 0) {
    // DyCuckoo holds theta in [alpha, beta] (or sits at minimum footprint);
    // SlabHash has decayed because tombstones pin pool memory.
    EXPECT_GT(dy->filled_factor(), slab->filled_factor());
    EXPECT_LT(dy->memory_bytes(), slab->memory_bytes());
  }
}

TEST(IntegrationTest, MultipleTablesDrivenByConcurrentHostThreads) {
  // Independent tables sharing the global grid, each driven by its own
  // host thread (the multi-structure coexistence scenario from the paper's
  // introduction).
  constexpr int kTables = 3;
  std::vector<std::unique_ptr<DyCuckooAdapter>> tables(kTables);
  for (int i = 0; i < kTables; ++i) {
    DyCuckooOptions o;
    o.initial_capacity = 1024;
    o.seed = 100 + i;
    ASSERT_TRUE(DyCuckooAdapter::Create(o, &tables[i]).ok());
  }
  std::vector<std::thread> hosts;
  std::atomic<int> failures{0};
  for (int i = 0; i < kTables; ++i) {
    hosts.emplace_back([&, i] {
      std::vector<uint32_t> keys, values;
      for (uint32_t k = 0; k < 20000; ++k) {
        keys.push_back(k * kTables + i + 1);
        values.push_back(k);
      }
      if (!tables[i]->BulkInsert(keys, values).ok()) failures.fetch_add(1);
      std::vector<uint32_t> out(keys.size());
      std::vector<uint8_t> found(keys.size());
      tables[i]->BulkFind(keys, out.data(), found.data());
      for (size_t j = 0; j < keys.size(); ++j) {
        if (!found[j] || out[j] != values[j]) {
          failures.fetch_add(1);
          break;
        }
      }
      if (!tables[i]->BulkErase(keys).ok()) failures.fetch_add(1);
    });
  }
  for (auto& h : hosts) h.join();
  EXPECT_EQ(failures.load(), 0);
  for (auto& t : tables) EXPECT_EQ(t->size(), 0u);
}

TEST(IntegrationTest, InterfacePolymorphismSmoke) {
  // All four contenders behind the base pointer, one loop.
  std::vector<std::unique_ptr<HashTableInterface>> tables;
  {
    std::unique_ptr<DyCuckooAdapter> t;
    ASSERT_TRUE(DyCuckooAdapter::Create(DyCuckooOptions{}, &t).ok());
    tables.push_back(std::move(t));
  }
  {
    std::unique_ptr<MegaKvTable> t;
    ASSERT_TRUE(MegaKvTable::Create(MegaKvOptions{}, &t).ok());
    tables.push_back(std::move(t));
  }
  {
    std::unique_ptr<SlabHashTable> t;
    ASSERT_TRUE(SlabHashTable::Create(SlabHashOptions{}, &t).ok());
    tables.push_back(std::move(t));
  }
  {
    std::unique_ptr<CudppCuckooTable> t;
    CudppOptions o;
    o.capacity_slots = 1 << 15;
    o.expected_items = 10000;
    ASSERT_TRUE(CudppCuckooTable::Create(o, &t).ok());
    tables.push_back(std::move(t));
  }

  std::vector<uint32_t> keys, values;
  for (uint32_t i = 1; i <= 10000; ++i) {
    keys.push_back(i * 3);
    values.push_back(i);
  }
  for (auto& t : tables) {
    ASSERT_TRUE(t->BulkInsert(keys, values).ok()) << t->name();
    EXPECT_EQ(t->size(), keys.size()) << t->name();
    std::vector<uint32_t> out(keys.size());
    std::vector<uint8_t> found(keys.size());
    t->BulkFind(keys, out.data(), found.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(found[i]) << t->name();
      ASSERT_EQ(out[i], values[i]) << t->name();
    }
    if (t->supports_erase()) {
      uint64_t erased = 0;
      ASSERT_TRUE(t->BulkErase(keys, &erased).ok()) << t->name();
      EXPECT_EQ(erased, keys.size()) << t->name();
      EXPECT_EQ(t->size(), 0u) << t->name();
    } else {
      EXPECT_TRUE(t->BulkErase(keys).IsNotSupported()) << t->name();
    }
  }
}

}  // namespace
}  // namespace dycuckoo
