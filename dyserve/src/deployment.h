// The stack a user calls, the closed loop that drives it, the layer-by-layer
// replay of the same micro-batches, and the crash-and-recover epilogue.

#ifndef DYSERVE_SRC_DEPLOYMENT_H_
#define DYSERVE_SRC_DEPLOYMENT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "durability/manager.h"
#include "gpusim/device_arena.h"
#include "gpusim/grid.h"
#include "service/sharded_server.h"
#include "trace.h"
#include "workloads.h"

namespace dyserve {

using Table = dycuckoo::DynamicTable<Key, Value>;
using Manager = dycuckoo::durability::DurabilityManager<Key, Value>;
using Sharded = dycuckoo::service::ShardedTableServer<Key, Value>;

/// A response or a recovered table that disagrees with the shadow model.
/// The message is the one-line repro: workload, seed, micro-batch.
struct OracleMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Names a run in oracle messages.
struct RunId {
  std::string workload;
  uint64_t seed = 0;
};

/// TableServer or ShardedTableServer over DynamicTable, each table's
/// DurabilityManager attached when the workload is durable.  All shards'
/// tables share the one Grid passed in.
class Deployment {
 public:
  Deployment(const WorkloadSpec& spec, dycuckoo::gpusim::Grid* grid);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Loads pairs straight into the tables; a durable deployment then takes
  /// a baseline checkpoint so its durable images cover them.
  void Preload(const std::vector<std::pair<Key, Value>>& pairs);

  uint64_t Submit(Server::Request request);
  void Step();
  bool TakeResponse(uint64_t id, Server::Response* out);

  const WorkloadSpec& spec() const { return spec_; }
  bool sharded() const { return sharded_ != nullptr; }
  int num_shards() const;
  uint32_t ShardOf(Key k) const;
  Table* table(int shard);
  Manager* manager(int shard);  // null without durability

  /// The serving-layer counters the ledger reads, summed over shards.
  dycuckoo::service::ServerStats::Snapshot server_stats() const;
  const dycuckoo::service::ShardedServerStats* sharded_stats() const;
  dycuckoo::TableStats::Snapshot table_stats();

  uint64_t memory_bytes();
  uint64_t live_keys();
  Digest LiveDigest();

  /// Takes a checkpoint on every durable shard now.
  void CheckpointAll();

  /// What a process death now would leave behind: the durable images, or a
  /// DynamicTable::Save snapshot of the table without durability.
  struct Images {
    std::string snapshot;
    std::string checkpoints, wal;  // unsharded durable
    std::vector<dycuckoo::durability::ShardImages> shards;
    std::vector<dycuckoo::DyCuckooOptions> shard_options;
    std::string manifest;
  };
  Images CaptureImages();

  struct Recovered {
    std::vector<std::unique_ptr<Table>> tables;  // one per shard
    uint64_t replay_records = 0;                 // WAL records applied
    double seconds = 0;
  };
  /// The crash-style stop: rebuilds the tables from `images`, on `grid`.
  /// Durable deployments run durability::Recover (RecoverAllShards when
  /// sharded); a deployment without durability loads the snapshot.
  /// `seconds` times only the rebuild.
  Recovered Recover(const Images& images, dycuckoo::gpusim::Grid* grid,
                    int max_parallel, Tracer* tracer);

 private:
  // Device memory for this deployment's tables and the tables recovered
  // from it.  Far above what the workloads need, it turns a runaway
  // resize into OutOfMemory statuses before it can exhaust the host.
  static constexpr uint64_t kArenaBytes = 1ull << 30;

  WorkloadSpec spec_;
  std::unique_ptr<dycuckoo::gpusim::DeviceArena> arena_;
  dycuckoo::DyCuckooOptions options_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<Manager> manager_;
  std::unique_ptr<Sharded> sharded_;
};

/// Compares live, recovered and model digests, whole and per shard; throws
/// OracleMismatch naming `batch` (the last micro-batch served).
void VerifyRecovered(Deployment* d, const Deployment::Recovered& rec,
                     const ShadowModel& model, const RunId& id,
                     uint32_t batch);

/// Per-shard digests of recovered tables.
std::vector<Digest> RecoveredDigests(const Deployment::Recovered& rec);

struct LoopOptions {
  double seconds = std::numeric_limits<double>::infinity();
  uint32_t min_batches = 0;
  uint32_t max_batches = std::numeric_limits<uint32_t>::max();
  bool whole_cycles = false;  // stop only right after a cycle_end batch
  Tracer* tracer = nullptr;
  bool sample_theta = false;
  // Called between chunks of micro-batches, outside the timed region, with
  // the timed serving seconds so far.
  std::function<void(double)> between_chunks;
};

struct LoopResult {
  uint32_t batches = 0;
  uint32_t last_batch = 0;
  uint64_t ops = 0;
  uint64_t requests = 0;
  uint64_t failed_ops = 0;
  uint64_t user_bytes_written = 0;  // 8 per insert, 4 per erase
  uint64_t checkpoint_bytes = 0;    // checkpoint entries written
  double seconds = 0;               // timed serving only
  std::vector<int64_t> batch_ns;    // timed serving per micro-batch
  std::vector<int64_t> latency_ns;  // Submit -> successful TakeResponse
  double memory_bytes_sum = 0;      // sampled after every micro-batch
  double live_keys_sum = 0;
  std::vector<double> theta;        // per table per micro-batch
};

/// The closed loop: kClients slots each submit one request and take its
/// response; one Step serves the micro-batch holding all of them.  Every
/// response is checked against the model.  Batches are generated in
/// chunks outside the timed region.
LoopResult RunClosedLoop(Deployment* d, Generator* gen, const LoopOptions& opt,
                         const RunId& id);

struct ReplayResult {
  uint32_t batches = 0;
  uint64_t ops = 0;
  uint64_t failed_ops = 0;
  std::vector<uint64_t> ops_per_shard;
};

/// Replays `batches` micro-batches through the layers' public APIs, driving
/// each call the way TableServer::Step does (BulkExecute, then Log* and one
/// group Commit, then an OnlineScrubber slice, then MaybeCheckpoint), with
/// a span around each call when `tracer` is set.  Results are checked
/// against the model like served responses.
ReplayResult Replay(Deployment* d, Generator* gen, uint32_t batches,
                    Tracer* tracer, const RunId& id);

}  // namespace dyserve

#endif  // DYSERVE_SRC_DEPLOYMENT_H_
