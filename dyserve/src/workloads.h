// Workloads and their seeded request generators.
//
// Load shape (every workload): a closed loop of kClients client slots, each
// submitting one kOpsPerRequest-op request and waiting for its response
// before the next, so one kBatchOps micro-batch (TableServer's
// max_batch_ops) holds every outstanding request.  The generator keeps keys
// distinct across a micro-batch: the order of same-key ops inside one
// micro-batch is unspecified, so with distinct keys every response has
// exactly one correct answer, which the generator records from its shadow
// model as it builds the batch.
//
// Each micro-batch also carries one kind of write only (inserts of new
// keys, upserts of resident keys, or erases) besides its finds.
// DynamicTable runs a batch's ops concurrently, and two races between kinds
// break what the oracle checks: an erase that removes the victim an
// eviction chain has just chosen makes size() drift from the contents, and
// an upsert racing its key's displacement can leave the old value readable
// (DynamicTable::BulkInsert documents the second and advises batching
// updates apart from new keys).  The workloads keep their op mix over a few
// batches instead of within each.

#ifndef DYSERVE_SRC_WORKLOADS_H_
#define DYSERVE_SRC_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/table_server.h"
#include "model.h"

namespace dyserve {

using Server = dycuckoo::service::TableServer<Key, Value>;
using Op = Server::Op;
using OpType = Server::OpType;

inline constexpr int kClients = 64;
inline constexpr int kOpsPerRequest = 64;
inline constexpr int kBatchOps = kClients * kOpsPerRequest;

struct WorkloadSpec {
  const char* name;
  bool sharded;
  bool durable;
  uint32_t num_shards;              // sharded only
  uint64_t scrub_buckets_per_step;  // 0 = no inline scrub
  uint64_t preload_keys;            // uniform workloads
  uint64_t initial_capacity;        // slots (the deployment total)
  double com_scale;                 // durable_churn: COM dataset scale
  int warmup_batches;               // uniform workloads; churn warms 1 cycle
};

/// The three workloads, by name; nullptr if unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The same workload at a size that runs in well under a second (the
/// self-test and the exact-count pass).
WorkloadSpec TinyVersion(const WorkloadSpec& spec);

/// What one find or erase must answer (inserts are not checked per op:
/// their effect shows in later finds and in the end-of-run digests).
struct Expect {
  uint8_t hit = 0;
  Value value = 0;
};

struct MicroBatch {
  uint32_t index = 0;  // position in the generator's stream
  std::vector<Op> ops;
  std::vector<Expect> expect;
  bool cycle_end = false;  // durable_churn: the table just drained empty
  uint64_t size_after = 0;  // live keys once the batch has run
};

class Generator {
 public:
  virtual ~Generator() = default;

  /// Pairs loaded before serving starts (already in the model).
  const std::vector<std::pair<Key, Value>>& preload() const {
    return preload_;
  }
  void ReleasePreload() { std::vector<std::pair<Key, Value>>().swap(preload_); }

  /// The next micro-batch; the model advances past it.
  virtual void Next(MicroBatch* out) = 0;

  const ShadowModel& model() const { return model_; }
  double generate_seconds() const { return generate_seconds_; }

 protected:
  ShadowModel model_;
  std::vector<std::pair<Key, Value>> preload_;
  double generate_seconds_ = 0;
  uint32_t next_index_ = 0;
};

std::unique_ptr<Generator> MakeGenerator(const WorkloadSpec& spec,
                                         uint64_t seed);

}  // namespace dyserve

#endif  // DYSERVE_SRC_WORKLOADS_H_
