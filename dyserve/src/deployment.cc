#include "deployment.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "durability/recovery.h"
#include "durability/sharded.h"
#include "service/scrubber.h"

namespace dyserve {

namespace {

using dycuckoo::Status;

// Micro-batches generated per pause.  The grid's workers idle through each
// pause and the first batch after it runs slow on a virtualized host, so
// pauses must come rarely enough that those batches stay well under the
// 1 % of samples beyond p99.
constexpr int kChunkBatches = 256;

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    DYCUCKOO_LOG(Error) << what << ": " << st.ToString();
    DYCUCKOO_CHECK(false);
  }
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

Digest TableDigest(const Table& t) {
  Digest d;
  t.ForEach([&d](Key k, Value v) { d.Add(k, v); });
  return d;
}

const char* OpName(OpType t) {
  switch (t) {
    case OpType::kFind:
      return "find";
    case OpType::kInsert:
      return "insert";
    case OpType::kErase:
      return "erase";
  }
  return "?";
}

/// Throws unless the op's observed outcome is the model's answer.
void CheckOp(const Op& op, const Expect& e, uint8_t hit, Value value,
             const RunId& id, uint32_t batch, uint64_t position) {
  bool ok = true;
  if (op.type == OpType::kFind) {
    ok = hit == e.hit && (e.hit == 0 || value == e.value);
  } else if (op.type == OpType::kErase) {
    ok = hit == e.hit;
  }
  if (ok) return;
  std::ostringstream os;
  os << "oracle mismatch: workload=" << id.workload << " seed=" << id.seed
     << " micro_batch=" << batch << " op=" << position << " type="
     << OpName(op.type) << " key=" << op.key << " expected hit="
     << int(e.hit) << " value=" << e.value << " got hit=" << int(hit)
     << " value=" << value;
  throw OracleMismatch(os.str());
}

/// Throws unless the tables hold as many keys as the model after `mb`.
void CheckSize(Deployment* d, const MicroBatch& mb, const RunId& id) {
  const uint64_t live = d->live_keys();
  if (live == mb.size_after) return;
  std::ostringstream os;
  os << "oracle mismatch: workload=" << id.workload << " seed=" << id.seed
     << " micro_batch=" << mb.index << " table size " << live << " ("
     << d->LiveDigest().count << " pairs stored) != model size "
     << mb.size_after;
  throw OracleMismatch(os.str());
}

/// Bytes of the newest checkpoint entry (the store appends at its end).
uint64_t NewestCheckpointBytes(const Manager& m) {
  const std::string& image = m.checkpoints().durable_image();
  const auto entries = dycuckoo::durability::CheckpointStore::Scan(image);
  return entries.empty() ? 0 : image.size() - entries.back().entry_offset;
}

}  // namespace

// --- Deployment ------------------------------------------------------------

Deployment::Deployment(const WorkloadSpec& spec, dycuckoo::gpusim::Grid* grid)
    : spec_(spec),
      arena_(std::make_unique<dycuckoo::gpusim::DeviceArena>(kArenaBytes)) {
  options_.arena = arena_.get();
  options_.grid = grid;
  options_.initial_capacity = spec.initial_capacity;
  dycuckoo::service::TableServerOptions server_options;
  server_options.max_batch_ops = kBatchOps;
  server_options.scrub_buckets_per_step = spec.scrub_buckets_per_step;
  if (spec.sharded) {
    Sharded::Options o;
    o.num_shards = spec.num_shards;
    o.shard = server_options;
    o.attach_durability = spec.durable;
    CheckOk(Sharded::Create(options_, o, &sharded_), "ShardedTableServer");
  } else {
    CheckOk(Server::Create(options_, server_options, &server_), "TableServer");
    if (spec.durable) {
      manager_ = std::make_unique<Manager>();
      server_->AttachDurability(manager_.get());
    }
  }
}

int Deployment::num_shards() const {
  return sharded_ ? static_cast<int>(sharded_->num_shards()) : 1;
}

uint32_t Deployment::ShardOf(Key k) const {
  return sharded_ ? sharded_->router().ShardOf(k) : 0;
}

Table* Deployment::table(int shard) {
  return sharded_ ? sharded_->shard_server(shard)->table() : server_->table();
}

Manager* Deployment::manager(int shard) {
  return sharded_ ? sharded_->shard_manager(shard) : manager_.get();
}

void Deployment::Preload(const std::vector<std::pair<Key, Value>>& pairs) {
  std::vector<std::vector<Key>> keys(num_shards());
  std::vector<std::vector<Value>> values(num_shards());
  for (const auto& [k, v] : pairs) {
    keys[ShardOf(k)].push_back(k);
    values[ShardOf(k)].push_back(v);
  }
  for (int s = 0; s < num_shards(); ++s) {
    CheckOk(table(s)->BulkInsert(keys[s], values[s]), "preload");
  }
  if (spec_.durable) CheckpointAll();
}

void Deployment::CheckpointAll() {
  for (int s = 0; s < num_shards(); ++s) {
    CheckOk(manager(s)->CheckpointNow(table(s)), "checkpoint");
  }
}

uint64_t Deployment::Submit(Server::Request request) {
  return sharded_ ? sharded_->Submit(std::move(request))
                  : server_->Submit(std::move(request));
}

void Deployment::Step() {
  if (sharded_) {
    sharded_->Step();
  } else {
    server_->Step();
  }
}

bool Deployment::TakeResponse(uint64_t id, Server::Response* out) {
  return sharded_ ? sharded_->TakeResponse(id, out)
                  : server_->TakeResponse(id, out);
}

dycuckoo::service::ServerStats::Snapshot Deployment::server_stats() const {
  if (!sharded_) return server_->stats().Capture();
  dycuckoo::service::ServerStats::Snapshot sum;
  for (int s = 0; s < num_shards(); ++s) {
    const auto x = sharded_->shard_server(s)->stats().Capture();
    sum.submitted += x.submitted;
    sum.completed_ok += x.completed_ok;
    sum.completed_error += x.completed_error;
    sum.batch_launches += x.batch_launches;
    sum.coalesced_fallbacks += x.coalesced_fallbacks;
    sum.retries += x.retries;
    sum.scrub_steps += x.scrub_steps;
  }
  return sum;
}

const dycuckoo::service::ShardedServerStats* Deployment::sharded_stats()
    const {
  return sharded_ ? &sharded_->stats() : nullptr;
}

dycuckoo::TableStats::Snapshot Deployment::table_stats() {
  dycuckoo::TableStats::Snapshot sum;
  for (int s = 0; s < num_shards(); ++s) {
    const auto x = table(s)->stats().Capture();
    sum.inserts_new += x.inserts_new;
    sum.inserts_updated += x.inserts_updated;
    sum.insert_failures += x.insert_failures;
    sum.finds += x.finds;
    sum.find_hits += x.find_hits;
    sum.erases += x.erases;
    sum.erase_hits += x.erase_hits;
    sum.evictions += x.evictions;
    sum.upsizes += x.upsizes;
    sum.downsizes += x.downsizes;
    sum.rehashed_kvs += x.rehashed_kvs;
    sum.stash_inserts += x.stash_inserts;
    sum.handoff_hits += x.handoff_hits;
  }
  return sum;
}

uint64_t Deployment::memory_bytes() {
  uint64_t total = 0;
  for (int s = 0; s < num_shards(); ++s) total += table(s)->memory_bytes();
  return total;
}

uint64_t Deployment::live_keys() {
  uint64_t total = 0;
  for (int s = 0; s < num_shards(); ++s) total += table(s)->size();
  return total;
}

Digest Deployment::LiveDigest() {
  Digest d;
  for (int s = 0; s < num_shards(); ++s) {
    const Digest x = TableDigest(*table(s));
    d.sum += x.sum;
    d.count += x.count;
  }
  return d;
}

Deployment::Images Deployment::CaptureImages() {
  Images im;
  if (!spec_.durable) {
    std::ostringstream snapshot;
    CheckOk(table(0)->Save(snapshot), "snapshot save");
    im.snapshot = snapshot.str();
  } else if (!sharded_) {
    im.checkpoints = manager_->checkpoints().durable_image();
    im.wal = manager_->wal().durable_image();
  } else {
    im.shards = sharded_->DurableImages();
    im.shard_options = sharded_->ShardTableOptionsList();
    im.manifest = sharded_->ManifestImage();
  }
  return im;
}

Deployment::Recovered Deployment::Recover(const Images& images,
                                          dycuckoo::gpusim::Grid* grid,
                                          int max_parallel, Tracer* tracer) {
  namespace dur = dycuckoo::durability;
  Recovered rec;
  dycuckoo::DyCuckooOptions options = options_;
  options.grid = grid;
  if (!spec_.durable) {
    std::istringstream in(images.snapshot);
    std::unique_ptr<Table> t;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, kRecover, 0);
      CheckOk(Table::Load(in, options, &t), "snapshot load");
    }
    rec.seconds = Seconds(NowNs() - t0);
    rec.tables.push_back(std::move(t));
    return rec;
  }
  if (!sharded_) {
    std::istringstream ckpt(images.checkpoints);
    std::istringstream wal(images.wal);
    std::unique_ptr<Table> t;
    dur::RecoveryReport report;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, kRecover, 0);
      CheckOk(dur::Recover<Key, Value>(ckpt, wal, options, &t, &report),
              "Recover");
    }
    rec.seconds = Seconds(NowNs() - t0);
    rec.replay_records = report.wal_records_applied;
    rec.tables.push_back(std::move(t));
    return rec;
  }
  dur::ShardManifest manifest;
  CheckOk(dur::ShardManifest::Decode(images.manifest, &manifest), "manifest");
  std::vector<dycuckoo::DyCuckooOptions> shard_options = images.shard_options;
  for (auto& o : shard_options) o.grid = grid;
  std::vector<dur::ShardRecoveryOutcome<Key, Value>> outcomes;
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, kRecover, 0);
    CheckOk(dur::RecoverAllShards<Key, Value>(
                manifest, images.shards, shard_options,
                sharded_->options().router_seed, &outcomes, max_parallel),
            "RecoverAllShards");
  }
  rec.seconds = Seconds(NowNs() - t0);
  for (auto& o : outcomes) {
    CheckOk(o.status, "shard recovery");
    rec.replay_records += o.report.wal_records_applied;
    rec.tables.push_back(std::move(o.table));
  }
  return rec;
}

void VerifyRecovered(Deployment* d, const Deployment::Recovered& rec,
                     const ShadowModel& model, const RunId& id,
                     uint32_t batch) {
  auto fail = [&](const std::string& what) {
    std::ostringstream os;
    os << "oracle mismatch: workload=" << id.workload << " seed=" << id.seed
       << " micro_batch=" << batch << " " << what;
    throw OracleMismatch(os.str());
  };
  Digest recovered;
  for (int s = 0; s < d->num_shards(); ++s) {
    const Digest live = TableDigest(*d->table(s));
    const Digest back = TableDigest(*rec.tables[s]);
    if (!(live == back)) {
      fail("shard " + std::to_string(s) + " live digest (" +
           std::to_string(live.count) + " keys) != recovered digest (" +
           std::to_string(back.count) + " keys)");
    }
    recovered.sum += back.sum;
    recovered.count += back.count;
  }
  const Digest expected = model.digest();
  if (!(recovered == expected)) {
    fail("recovered digest (" + std::to_string(recovered.count) +
         " keys) != model digest (" + std::to_string(expected.count) +
         " keys)");
  }
}

std::vector<Digest> RecoveredDigests(const Deployment::Recovered& rec) {
  std::vector<Digest> out;
  for (const auto& t : rec.tables) out.push_back(TableDigest(*t));
  return out;
}

// --- The closed loop -------------------------------------------------------

namespace {

struct Chunk {
  std::vector<MicroBatch> batches;
  std::vector<std::vector<Server::Request>> requests;
};

/// Splits each micro-batch into the kClients requests its slots submit.
void Package(Chunk* chunk, LoopResult* r) {
  chunk->requests.assign(chunk->batches.size(), {});
  for (size_t b = 0; b < chunk->batches.size(); ++b) {
    const MicroBatch& mb = chunk->batches[b];
    auto& reqs = chunk->requests[b];
    reqs.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      reqs[c].ops.assign(mb.ops.begin() + c * kOpsPerRequest,
                         mb.ops.begin() + (c + 1) * kOpsPerRequest);
    }
    for (const Op& op : mb.ops) {
      if (op.type == OpType::kInsert) {
        r->user_bytes_written += sizeof(Key) + sizeof(Value);
      } else if (op.type == OpType::kErase) {
        r->user_bytes_written += sizeof(Key);
      }
    }
  }
}

void RunBatch(Deployment* d, const MicroBatch& mb,
              std::vector<Server::Request>* requests, Tracer* tracer,
              const RunId& id, LoopResult* r) {
  const SpanName step_name = d->sharded() ? kShardedStep : kStep;
  uint64_t ids[kClients];
  int64_t submitted_at[kClients];
  for (int c = 0; c < kClients; ++c) {
    submitted_at[c] = NowNs();
    ScopedSpan span(tracer, kSubmit, mb.index);
    ids[c] = d->Submit(std::move((*requests)[c]));
  }
  {
    ScopedSpan span(tracer, step_name, mb.index);
    d->Step();
  }
  for (int c = 0; c < kClients; ++c) {
    Server::Response resp;
    for (;;) {
      bool taken = false;
      {
        ScopedSpan span(tracer, kTake, mb.index);
        taken = d->TakeResponse(ids[c], &resp);
      }
      if (taken) break;
      ScopedSpan span(tracer, step_name, mb.index);
      d->Step();
    }
    r->latency_ns.push_back(NowNs() - submitted_at[c]);
    if (!resp.status.ok()) {
      r->failed_ops += kOpsPerRequest;
      continue;
    }
    if (resp.results.size() != static_cast<size_t>(kOpsPerRequest)) {
      throw OracleMismatch("oracle mismatch: workload=" + id.workload +
                           " seed=" + std::to_string(id.seed) +
                           " micro_batch=" + std::to_string(mb.index) +
                           " response without one result per op");
    }
    for (int i = 0; i < kOpsPerRequest; ++i) {
      const uint64_t pos = static_cast<uint64_t>(c) * kOpsPerRequest + i;
      CheckOp(mb.ops[pos], mb.expect[pos], resp.results[i].hit,
              resp.results[i].value, id, mb.index, pos);
    }
  }
  CheckSize(d, mb, id);
  r->ops += kBatchOps;
  r->requests += kClients;
}

}  // namespace

LoopResult RunClosedLoop(Deployment* d, Generator* gen, const LoopOptions& opt,
                         const RunId& id) {
  LoopResult r;
  std::vector<uint64_t> checkpoints_seen(d->num_shards(), 0);
  for (int s = 0; s < d->num_shards(); ++s) {
    if (Manager* m = d->manager(s)) {
      checkpoints_seen[s] = m->checkpoints().entries_written();
    }
  }
  int64_t timed_ns = 0;
  bool stop = false;
  Chunk chunk;
  while (!stop) {
    const bool time_up = Seconds(timed_ns) >= opt.seconds &&
                         r.batches >= opt.min_batches;
    if (time_up && !opt.whole_cycles) break;
    chunk.batches.clear();
    while (chunk.batches.size() < static_cast<size_t>(kChunkBatches) &&
           r.batches + chunk.batches.size() < opt.max_batches) {
      chunk.batches.emplace_back();
      gen->Next(&chunk.batches.back());
      const MicroBatch& mb = chunk.batches.back();
      if (opt.whole_cycles && time_up && mb.cycle_end) {
        stop = true;
        break;
      }
    }
    if (chunk.batches.empty()) break;
    Package(&chunk, &r);
    for (size_t b = 0; b < chunk.batches.size(); ++b) {
      const int64_t t0 = NowNs();
      RunBatch(d, chunk.batches[b], &chunk.requests[b], opt.tracer, id, &r);
      r.batch_ns.push_back(NowNs() - t0);
      timed_ns += r.batch_ns.back();
      ++r.batches;
      r.last_batch = chunk.batches[b].index;
      r.memory_bytes_sum += static_cast<double>(d->memory_bytes());
      r.live_keys_sum += static_cast<double>(d->live_keys());
      for (int s = 0; s < d->num_shards(); ++s) {
        if (opt.sample_theta) r.theta.push_back(d->table(s)->filled_factor());
        Manager* m = d->manager(s);
        if (m != nullptr &&
            m->checkpoints().entries_written() != checkpoints_seen[s]) {
          checkpoints_seen[s] = m->checkpoints().entries_written();
          r.checkpoint_bytes += NewestCheckpointBytes(*m);
        }
      }
    }
    if (opt.between_chunks) opt.between_chunks(Seconds(timed_ns));
    if (r.batches >= opt.max_batches) break;
  }
  r.seconds = Seconds(timed_ns);
  return r;
}

// --- The layer replay ------------------------------------------------------

ReplayResult Replay(Deployment* d, Generator* gen, uint32_t batches,
                    Tracer* tracer, const RunId& id) {
  using MixedOp = Table::MixedOp;
  using Scrubber = dycuckoo::service::OnlineScrubber<Key, Value>;
  const int shards = d->num_shards();
  ReplayResult r;
  r.ops_per_shard.assign(shards, 0);
  std::vector<std::unique_ptr<Scrubber>> scrubbers;
  for (int s = 0; s < shards; ++s) {
    scrubbers.push_back(std::make_unique<Scrubber>(d->table(s)));
  }
  std::vector<std::vector<uint32_t>> routed(shards);
  std::vector<MixedOp> ops;
  MicroBatch mb;
  for (uint32_t b = 0; b < batches; ++b) {
    gen->Next(&mb);
    ScopedSpan batch_span(tracer, kReplayBatch, mb.index);
    for (auto& v : routed) v.clear();
    for (uint32_t i = 0; i < mb.ops.size(); ++i) {
      routed[d->ShardOf(mb.ops[i].key)].push_back(i);
    }
    for (int s = 0; s < shards; ++s) {
      if (routed[s].empty()) continue;
      ScopedSpan step_span(tracer, kReplayShardStep, mb.index);
      Table* table = d->table(s);
      Manager* manager = d->manager(s);
      ops.clear();
      for (uint32_t i : routed[s]) {
        const Op& op = mb.ops[i];
        ops.push_back(MixedOp{op.type, op.key, op.value, 0});
      }
      r.ops_per_shard[s] += ops.size();
      Status st;
      {
        ScopedSpan span(tracer, kBulkExecute, mb.index);
        st = table->BulkExecute(ops);
      }
      if (!st.ok()) {
        r.failed_ops += ops.size();
        continue;
      }
      if (manager != nullptr) {
        for (const MixedOp& op : ops) {
          if (op.type == OpType::kInsert) {
            ScopedSpan span(tracer, kLogInsert, mb.index);
            manager->LogInsert(op.key, op.value);
          } else if (op.type == OpType::kErase) {
            ScopedSpan span(tracer, kLogErase, mb.index);
            manager->LogErase(op.key);
          }
        }
        ScopedSpan span(tracer, kCommit, mb.index);
        CheckOk(manager->Commit(), "commit");
      }
      if (d->spec().scrub_buckets_per_step > 0) {
        ScopedSpan span(tracer, kScrub, mb.index);
        const auto report =
            scrubbers[s]->Step(d->spec().scrub_buckets_per_step);
        if (!report.filled_factor_ok) {
          CheckOk(table->ResizeToBounds(), "scrub resize");
          if (manager != nullptr) {
            manager->LogResizeBarrier(table->capacity_slots());
            CheckOk(manager->Commit(), "barrier commit");
          }
        }
      }
      if (manager != nullptr) {
        ScopedSpan span(tracer, kMaybeCheckpoint, mb.index);
        const uint64_t before = manager->stats().checkpoints;
        CheckOk(manager->MaybeCheckpoint(table), "checkpoint");
        if (manager->stats().checkpoints != before) span.Mark();
      }
      for (size_t j = 0; j < ops.size(); ++j) {
        const uint32_t pos = routed[s][j];
        CheckOp(mb.ops[pos], mb.expect[pos], ops[j].hit, ops[j].value, id,
                mb.index, pos);
      }
    }
    CheckSize(d, mb, id);
    r.ops += mb.ops.size();
    ++r.batches;
  }
  return r;
}

}  // namespace dyserve
