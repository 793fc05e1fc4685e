#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <deque>

#include "common/logging.h"
#include "common/rng.h"
#include "workload/dataset.h"

namespace dyserve {

namespace {

// The uniform workloads preload to theta ~0.57, mid-band between the
// default alpha 0.30 and beta 0.85, with a power-of-two capacity per
// subtable so the preload itself never resizes.
const std::vector<WorkloadSpec> kWorkloads = {
    {"read_mostly",
     /*sharded=*/false, /*durable=*/false, /*num_shards=*/0,
     /*scrub_buckets_per_step=*/0, /*preload_keys=*/300000,
     /*initial_capacity=*/524288, /*com_scale=*/0, /*warmup_batches=*/16},
    {"durable_churn",
     /*sharded=*/false, /*durable=*/true, /*num_shards=*/0,
     /*scrub_buckets_per_step=*/256, /*preload_keys=*/0,
     /*initial_capacity=*/65536, /*com_scale=*/0.02, /*warmup_batches=*/0},
    {"sharded_uniform",
     /*sharded=*/true, /*durable=*/true, /*num_shards=*/4,
     /*scrub_buckets_per_step=*/0, /*preload_keys=*/300000,
     /*initial_capacity=*/524288, /*com_scale=*/0, /*warmup_batches=*/16},
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Appends ops to one micro-batch, answering each from the model before
/// applying it.  Keys are distinct within the batch, so the answer is the
/// same whatever order the server runs the batch's ops in.
class BatchBuilder {
 public:
  BatchBuilder(ShadowModel* model, BatchKeySet* used, MicroBatch* out)
      : model_(model), used_(used), out_(out) {
    used_->Clear();
    out_->ops.clear();
    out_->expect.clear();
    out_->cycle_end = false;
  }

  uint64_t size() const { return out_->ops.size(); }
  bool used(Key k) const { return used_->Contains(k); }

  /// A find of the resident key in model slot `i`.
  void FindAt(uint64_t i) {
    Push(OpType::kFind, model_->key_at(i), 0, Expect{1, model_->value_at(i)});
  }

  /// A find of a key the model has never held.
  void FindAbsent(Key k) { Push(OpType::kFind, k, 0, Expect{}); }

  void Insert(Key k, Value v) {
    Push(OpType::kInsert, k, v, Expect{});
    model_->Upsert(k, v);
  }

  /// An erase of the resident key in model slot `i`.
  void EraseAt(uint64_t i) {
    Push(OpType::kErase, model_->key_at(i), 0, Expect{1, 0});
    model_->EraseAt(i);
  }

  /// A model slot whose key is not yet in this batch, by a few uniform draws.
  bool PickResident(dycuckoo::Xoroshiro128* rng, uint64_t* slot) const {
    if (model_->size() == 0) return false;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const uint64_t i = model_->Sample(rng);
      if (!used(model_->key_at(i))) {
        *slot = i;
        return true;
      }
    }
    return false;
  }

  /// Mixes op types across the batch's requests.
  void Finish(dycuckoo::Xoroshiro128* rng) {
    for (size_t i = out_->ops.size(); i > 1; --i) {
      size_t j = rng->NextBounded(i);
      std::swap(out_->ops[i - 1], out_->ops[j]);
      std::swap(out_->expect[i - 1], out_->expect[j]);
    }
    out_->size_after = model_->size();
  }

 private:
  void Push(OpType type, Key k, Value v, Expect e) {
    DYCUCKOO_CHECK(used_->Insert(k));
    out_->ops.push_back(Op{type, k, v});
    out_->expect.push_back(e);
  }

  ShadowModel* model_;
  BatchKeySet* used_;
  MicroBatch* out_;
};

/// Uniform keys.  Micro-batches take their write kind in turn from a fixed
/// cycle (one kind per batch, see workloads.h), each with `writes` writes
/// and finds to fill; every cycle erases as many keys as it inserts new
/// ones, so the size stays flat and no resize fires.
class UniformGenerator : public Generator {
 public:
  enum class WriteKind { kNewKeys, kUpserts, kErases };
  struct Mix {
    std::vector<WriteKind> cycle;
    int writes;
    double find_hit_share;
  };

  UniformGenerator(const WorkloadSpec& spec, uint64_t seed, Mix mix)
      : mix_(std::move(mix)), rng_(seed), fresh_(seed ^ 0x5EED0F7E5ULL, 0) {
    const auto t0 = std::chrono::steady_clock::now();
    model_.Reserve(spec.preload_keys + spec.preload_keys / 8);
    preload_.reserve(spec.preload_keys);
    for (uint64_t i = 0; i < spec.preload_keys; ++i) {
      const Key k = fresh_.Next();
      const Value v = static_cast<Value>(rng_.Next());
      model_.Upsert(k, v);
      preload_.emplace_back(k, v);
    }
    generate_seconds_ = SecondsSince(t0);
  }

  void Next(MicroBatch* out) override {
    out->index = next_index_++;
    BatchBuilder b(&model_, &used_, out);
    uint64_t slot = 0;
    switch (mix_.cycle[out->index % mix_.cycle.size()]) {
      case WriteKind::kNewKeys:
        for (int i = 0; i < mix_.writes; ++i) {
          b.Insert(fresh_.Next(), static_cast<Value>(rng_.Next()));
        }
        break;
      case WriteKind::kUpserts:
        for (int i = 0; i < mix_.writes && b.PickResident(&rng_, &slot); ++i) {
          b.Insert(model_.key_at(slot), static_cast<Value>(rng_.Next()));
        }
        break;
      case WriteKind::kErases:
        for (int i = 0; i < mix_.writes && b.PickResident(&rng_, &slot); ++i) {
          b.EraseAt(slot);
        }
        break;
    }
    while (b.size() < static_cast<uint64_t>(kBatchOps)) {
      if (rng_.NextDouble() < mix_.find_hit_share &&
          b.PickResident(&rng_, &slot)) {
        b.FindAt(slot);
      } else {
        b.FindAbsent(fresh_.Next());
      }
    }
    b.Finish(&rng_);
  }

 private:
  Mix mix_;
  dycuckoo::Xoroshiro128 rng_;
  FreshKeys fresh_;
  BatchKeySet used_{4 * kBatchOps};
};

/// The paper's section VI-A dynamic timeline as a served stream, looped:
/// grow by streaming the COM dataset as inserts (hot keys recur as
/// upserts) with finds at ratio 1.0 and erases at r = 0.2, then drain with
/// the roles swapped (erases at 1.0, re-inserts of erased keys at r) until
/// the table is empty, then start the next cycle.
///
/// With one write kind per batch (workloads.h), five batches of the phase's
/// major write kind alternate with one of the minor kind (r = 1/5), each
/// with kWrites writes and finds to fill, which keeps every batch at 54.5 %
/// writes and the totals at 1 : 1 : 0.2.  Hot keys recurring in the stream
/// queue for the next upsert batch.  Each cycle streams a fresh COM dataset
/// drawn from the seed, so one run averages over many key sets.
class ChurnGenerator : public Generator {
 public:
  static constexpr int kWrites = 2234;     // kBatchOps * 6 / 11
  static constexpr int kMinorEvery = 6;    // one minor-write batch in six

  ChurnGenerator(const WorkloadSpec& spec, uint64_t seed)
      : scale_(spec.com_scale), seed_(seed), rng_(seed) {
    const auto t0 = std::chrono::steady_clock::now();
    StartCycle();
    generate_seconds_ = SecondsSince(t0);
  }

  void Next(MicroBatch* out) override {
    out->index = next_index_++;
    BatchBuilder b(&model_, &used_, out);
    const bool minor = ++phase_batches_ % kMinorEvery == 0;
    if (!growing_) {
      if (minor) {
        Reinsert(&b);
      } else {
        EraseResident(&b, /*to_graveyard=*/false);
      }
    } else if (minor) {
      EraseResident(&b, /*to_graveyard=*/true);
    } else if (upserts_.size() >= static_cast<size_t>(kWrites) ||
               (StreamDone() && !upserts_.empty())) {
      Upserts(&b);
    } else {
      NewInserts(&b);
    }
    FillFinds(&b);
    b.Finish(&rng_);
    if (growing_ && StreamDone() && upserts_.empty()) {
      growing_ = false;
      phase_batches_ = 0;
    } else if (!growing_ && model_.size() == 0) {
      out->cycle_end = true;
      StartCycle();
    }
  }

 private:
  /// Starts a grow phase from the empty table with the next dataset.
  /// Finds that must miss draw keys from the dataset's own permutation
  /// beyond its counters, so they are absent from every key it streams.
  void StartCycle() {
    const uint64_t data_seed = dycuckoo::Mix64(seed_ + cycles_++);
    dycuckoo::workload::Dataset data;
    DYCUCKOO_CHECK(dycuckoo::workload::MakeDataset(
                       dycuckoo::workload::DatasetId::kCompany, scale_,
                       data_seed, &data)
                       .ok());
    stream_ = std::move(data.keys);
    model_.Reserve(data.unique_keys + data.unique_keys / 8);
    misses_ = FreshKeys(data_seed, 0x80000000u);
    growing_ = true;
    phase_batches_ = 0;
    cursor_ = 0;
    graveyard_.clear();
  }

  bool StreamDone() const {
    return cursor_ >= stream_.size() && readmitted_.empty();
  }

  /// Inserts of keys not in the table, in stream order; a key already
  /// resident (a hot key recurring) queues for an upsert batch instead.
  void NewInserts(BatchBuilder* b) {
    int inserts = 0;
    auto offer = [&](Key k) {
      if (model_.Contains(k)) {
        upserts_.push_back(k);
      } else {
        b->Insert(k, static_cast<Value>(rng_.Next()));
        ++inserts;
      }
    };
    while (inserts < kWrites && !readmitted_.empty()) {
      offer(readmitted_.back());
      readmitted_.pop_back();
    }
    while (inserts < kWrites && cursor_ < stream_.size()) {
      offer(stream_[cursor_++]);
    }
  }

  void Upserts(BatchBuilder* b) {
    std::vector<Key> again;  // queued twice: wait for the next upsert batch
    for (int n = 0; n < kWrites && !upserts_.empty();) {
      const Key k = upserts_.front();
      upserts_.pop_front();
      if (!model_.Contains(k)) {
        readmitted_.push_back(k);  // erased since it queued: a new key again
      } else if (b->used(k)) {
        again.push_back(k);
      } else {
        b->Insert(k, static_cast<Value>(rng_.Next()));
        ++n;
      }
    }
    upserts_.insert(upserts_.begin(), again.begin(), again.end());
  }

  void EraseResident(BatchBuilder* b, bool to_graveyard) {
    if (model_.size() <= static_cast<uint64_t>(kWrites)) {
      // Few enough left to erase them all; sampling would miss some.
      while (model_.size() > 0) {
        if (to_graveyard) graveyard_.push_back(model_.key_at(0));
        b->EraseAt(0);
      }
      return;
    }
    uint64_t slot = 0;
    for (int i = 0; i < kWrites && b->PickResident(&rng_, &slot); ++i) {
      if (to_graveyard) graveyard_.push_back(model_.key_at(slot));
      b->EraseAt(slot);
    }
  }

  void Reinsert(BatchBuilder* b) {
    for (int i = 0; i < kWrites && !graveyard_.empty(); ++i) {
      const Key k = graveyard_.back();
      graveyard_.pop_back();
      // Only keys still absent: this is a batch of new-key inserts (a key
      // erased twice in a cycle is in the graveyard twice).
      if (!model_.Contains(k) && !b->used(k)) {
        b->Insert(k, static_cast<Value>(rng_.Next()));
      }
    }
  }

  void FillFinds(BatchBuilder* b) {
    uint64_t slot = 0;
    while (b->size() < static_cast<uint64_t>(kBatchOps)) {
      if (b->PickResident(&rng_, &slot)) {
        b->FindAt(slot);
      } else {
        b->FindAbsent(misses_.Next());
      }
    }
  }

  double scale_;
  uint64_t seed_;
  uint64_t cycles_ = 0;
  dycuckoo::Xoroshiro128 rng_;
  FreshKeys misses_{0, 0};
  std::vector<Key> stream_;
  size_t cursor_ = 0;
  std::deque<Key> upserts_;      // resident stream keys awaiting an upsert
  std::vector<Key> readmitted_;  // queued upserts whose key was erased
  std::vector<Key> graveyard_;   // keys erased this cycle, for re-insertion
  bool growing_ = true;
  int phase_batches_ = 0;
  BatchKeySet used_{4 * kBatchOps};
};

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

WorkloadSpec TinyVersion(const WorkloadSpec& spec) {
  WorkloadSpec t = spec;
  if (spec.sharded) {
    // ShardedTableServer floors each shard at 4096 slots.
    t.initial_capacity = 4096ull * spec.num_shards;
    t.preload_keys = 2340ull * spec.num_shards;
  } else if (spec.preload_keys > 0) {
    t.initial_capacity = 65536;
    t.preload_keys = 37500;
  } else {
    t.initial_capacity = 4096;
    t.com_scale = 0.001;
  }
  t.warmup_batches = spec.warmup_batches > 0 ? 2 : 0;
  return t;
}

std::unique_ptr<Generator> MakeGenerator(const WorkloadSpec& spec,
                                         uint64_t seed) {
  if (spec.com_scale > 0) return std::make_unique<ChurnGenerator>(spec, seed);
  // read_mostly: 90 % find (95 % hits), 5 % new keys, 5 % erases, as
  // batches of 10 % new keys and of 10 % erases in turn.  sharded_uniform:
  // 60 % find (90 % hits), 30 % insert of which two thirds upsert resident
  // keys, 10 % erase, as a four-batch cycle of 40 % writes each.
  using Kind = UniformGenerator::WriteKind;
  UniformGenerator::Mix mix;
  if (spec.sharded) {
    mix = {{Kind::kNewKeys, Kind::kUpserts, Kind::kUpserts, Kind::kErases},
           1638, 0.9};
  } else {
    mix = {{Kind::kNewKeys, Kind::kErases}, 410, 0.95};
  }
  return std::make_unique<UniformGenerator>(spec, seed, std::move(mix));
}

}  // namespace dyserve
