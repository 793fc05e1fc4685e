#include "ledger.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/logging.h"

namespace dyserve {

namespace {

const std::vector<MetricDecl> kEndToEnd = {
    {"throughput_mops", "Mops", "higher"},
    {"request_p50_us", "us", "lower"},
    {"request_p99_us", "us", "lower"},
    {"bytes_per_key", "B/key", "lower"},
    {"recovery_s", "s", "lower"},
    {"setup_s", "s", "lower"},
};

const std::vector<MetricDecl> kPerLayer = {
    {"gpusim.bucket_reads_per_op", "count/op", "lower"},
    {"gpusim.bucket_writes_per_op", "count/op", "lower"},
    {"gpusim.atomics_per_op", "count/op", "lower"},
    {"gpusim.txn_per_op", "count/op", "lower"},
    {"gpusim.cas_fail_ratio", "ratio", "lower"},
    {"gpusim.lock_conflicts_per_op", "count/op", "lower"},
    {"dycuckoo.execute_ns_per_op", "ns/op", "lower"},
    {"dycuckoo.find_hit_ratio", "ratio", "higher"},
    {"dycuckoo.evictions_per_insert", "count/insert", "lower"},
    {"dycuckoo.insert_failures", "count", "lower"},
    {"dycuckoo.upsizes", "count", "lower"},
    {"dycuckoo.downsizes", "count", "lower"},
    {"dycuckoo.rehashed_kvs_per_op", "count/op", "lower"},
    {"dycuckoo.stash_inserts", "count", "lower"},
    {"dycuckoo.handoff_hits", "count", "lower"},
    {"dycuckoo.filled_factor_mean", "ratio", "higher"},
    {"dycuckoo.filled_factor_min", "ratio", "higher"},
    {"dycuckoo.filled_factor_max", "ratio", "higher"},
    {"service.step_us_p50", "us", "lower"},
    {"service.step_us_p99", "us", "lower"},
    {"service.submit_ns_per_request", "ns/request", "lower"},
    {"service.take_ns_per_request", "ns/request", "lower"},
    {"service.ops_per_launch", "ops/launch", "higher"},
    {"service.tax_ns_per_op", "ns/op", "lower"},
    {"service.scrub_ns_per_op", "ns/op", "lower"},
    {"service.coalesced_fallbacks", "count", "lower"},
    {"service.retries", "count", "lower"},
    {"durability.log_ns_per_write", "ns/write", "lower"},
    {"durability.commit_us_p50", "us", "lower"},
    {"durability.commit_us_p99", "us", "lower"},
    {"durability.records_per_commit", "records/commit", "higher"},
    {"durability.wal_bytes_per_record", "B/record", "lower"},
    {"durability.write_amp", "ratio", "lower"},
    {"durability.checkpoints", "count", "lower"},
    {"durability.checkpoint_ms_p50", "ms", "lower"},
    {"durability.checkpoint_ms_max", "ms", "lower"},
    {"durability.replay_records", "count", "lower"},
    {"sharded.step_us_p50", "us", "lower"},
    {"sharded.step_us_p99", "us", "lower"},
    {"sharded.subrequests_per_request", "count/request", "lower"},
    {"sharded.shard_op_imbalance", "ratio", "lower"},
    {"workload.generate_s", "s", "lower"},
    {"trace_overhead", "ratio", "lower"},
    {"exact.ops", "count", "higher"},
    {"exact.gpusim.bucket_reads", "count", "lower"},
    {"exact.gpusim.bucket_writes", "count", "lower"},
    {"exact.gpusim.atomics", "count", "lower"},
    {"exact.dycuckoo.evictions", "count", "lower"},
    {"exact.dycuckoo.upsizes", "count", "lower"},
    {"exact.dycuckoo.downsizes", "count", "lower"},
    {"exact.dycuckoo.rehashed_kvs", "count", "lower"},
    {"exact.dycuckoo.find_hits", "count", "higher"},
    {"exact.dycuckoo.stash_inserts", "count", "lower"},
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string FormatNumber(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

const MetricDecl* FindDecl(const std::vector<MetricDecl>& decls,
                           const std::string& name) {
  for (const MetricDecl& d : decls) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// Durations (ns) of the spans named `name`, optionally only marked ones.
std::vector<int64_t> Durations(const Tracer& t, SpanName name,
                               bool marked_only = false) {
  std::vector<int64_t> out;
  for (const Span& s : t.spans()) {
    if (s.name == name && (!marked_only || s.marked)) {
      out.push_back(s.duration());
    }
  }
  return out;
}

double Sum(const std::vector<int64_t>& v) {
  double total = 0;
  for (int64_t x : v) total += static_cast<double>(x);
  return total;
}

}  // namespace

const std::vector<MetricDecl>& EndToEndMetrics() { return kEndToEnd; }
const std::vector<MetricDecl>& PerLayerMetrics() { return kPerLayer; }

void MetricSet::Set(const std::string& name, double value) {
  DYCUCKOO_CHECK(FindDecl(*decls_, name) != nullptr);
  DYCUCKOO_CHECK(std::isfinite(value));
  values_[name] = value;
}

std::vector<std::string> MetricSet::Missing() const {
  std::vector<std::string> out;
  for (const MetricDecl& d : *decls_) {
    if (values_.count(d.name) == 0) out.push_back(d.name);
  }
  return out;
}

void MetricSet::PrintLines(std::FILE* out) const {
  for (const MetricDecl& d : *decls_) {
    auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    std::fprintf(out, "metric %s %s %s\n", d.name,
                 FormatNumber(it->second).c_str(), d.unit);
  }
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (const MetricDecl& d : *decls_) {
    auto it = values_.find(d.name);
    if (it == values_.end()) continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + std::string(d.name) + "\": {\"value\": " +
           FormatNumber(it->second) + ", \"unit\": \"" + d.unit + "\"}";
  }
  return out + "}";
}

double Percentile(std::vector<int64_t>* samples, double q) {
  if (samples->empty()) return 0;
  std::sort(samples->begin(), samples->end());
  const double n = static_cast<double>(samples->size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, samples->size());
  return static_cast<double>((*samples)[rank - 1]);
}

double WindowedBatchTimeNs(const LoopResult& r, uint32_t windows,
                           double over) {
  const size_t per = r.batch_ns.size() / windows;
  std::vector<int64_t> ns(windows, 0);
  for (size_t w = 0; w < windows; ++w) {
    for (size_t b = w * per; b < (w + 1) * per; ++b) ns[w] += r.batch_ns[b];
  }
  return Percentile(&ns, over) / static_cast<double>(per);
}

double WindowedLatency(const LoopResult& r, uint32_t windows, double q,
                       double over) {
  // Every micro-batch contributes kClients samples, in order.
  const size_t per = (r.batch_ns.size() / windows) * kClients;
  std::vector<int64_t> quantiles;
  std::vector<int64_t> samples;
  for (size_t w = 0; w < windows; ++w) {
    samples.assign(r.latency_ns.begin() + w * per,
                   r.latency_ns.begin() + (w + 1) * per);
    quantiles.push_back(static_cast<int64_t>(Percentile(&samples, q)));
  }
  return Percentile(&quantiles, over);
}

DurabilityTotals CaptureDurability(Deployment* d) {
  DurabilityTotals t;
  for (int s = 0; s < d->num_shards(); ++s) {
    const Manager* m = d->manager(s);
    if (m == nullptr) continue;
    t.records_logged += m->stats().records_logged;
    t.group_commits += m->stats().group_commits;
    t.checkpoints += m->stats().checkpoints;
    t.bytes_flushed += m->wal().bytes_flushed();
    t.records_flushed += m->wal().records_flushed();
  }
  return t;
}

bool ExactCounts::SameAs(const ExactCounts& o) const {
  return ops == o.ops && sim.bucket_reads == o.sim.bucket_reads &&
         sim.bucket_writes == o.sim.bucket_writes &&
         sim.atomic_cas == o.sim.atomic_cas &&
         sim.atomic_exch == o.sim.atomic_exch &&
         table.evictions == o.table.evictions &&
         table.upsizes == o.table.upsizes &&
         table.downsizes == o.table.downsizes &&
         table.rehashed_kvs == o.table.rehashed_kvs &&
         table.find_hits == o.table.find_hits &&
         table.stash_inserts == o.table.stash_inserts;
}

void FillPerLayer(const TracedRun& run, MetricSet* out) {
  const double ops = static_cast<double>(run.traced.ops);
  const Tracer& t = run.trace;

  // gpusim: simulated device transactions over the traced batches.
  const auto& sim = run.sim;
  out->Set("gpusim.bucket_reads_per_op", Ratio(sim.bucket_reads, ops));
  out->Set("gpusim.bucket_writes_per_op", Ratio(sim.bucket_writes, ops));
  out->Set("gpusim.atomics_per_op",
           Ratio(sim.atomic_cas + sim.atomic_exch, ops));
  out->Set("gpusim.txn_per_op",
           Ratio(sim.bucket_reads + sim.bucket_writes, ops));
  out->Set("gpusim.cas_fail_ratio",
           Ratio(sim.atomic_cas_failed, sim.atomic_cas));
  out->Set("gpusim.lock_conflicts_per_op", Ratio(sim.lock_conflicts, ops));

  // dycuckoo: the table's own counters, plus BulkExecute's self time.
  const auto& a = run.table_before;
  const auto& b = run.table_after;
  std::vector<int64_t> execute_self;
  const std::vector<int64_t> self = t.SelfTimes();
  for (size_t i = 0; i < t.spans().size(); ++i) {
    if (t.spans()[i].name == kBulkExecute) execute_self.push_back(self[i]);
  }
  out->Set("dycuckoo.execute_ns_per_op", Ratio(Sum(execute_self), ops));
  out->Set("dycuckoo.find_hit_ratio",
           Ratio(b.find_hits - a.find_hits, b.finds - a.finds));
  out->Set("dycuckoo.evictions_per_insert",
           Ratio(b.evictions - a.evictions,
                 (b.inserts_new - a.inserts_new) +
                     (b.inserts_updated - a.inserts_updated)));
  out->Set("dycuckoo.insert_failures", b.insert_failures - a.insert_failures);
  out->Set("dycuckoo.upsizes", b.upsizes - a.upsizes);
  out->Set("dycuckoo.downsizes", b.downsizes - a.downsizes);
  out->Set("dycuckoo.rehashed_kvs_per_op",
           Ratio(b.rehashed_kvs - a.rehashed_kvs, ops));
  out->Set("dycuckoo.stash_inserts", b.stash_inserts - a.stash_inserts);
  out->Set("dycuckoo.handoff_hits", b.handoff_hits - a.handoff_hits);
  const std::vector<double>& theta = run.traced.theta;
  double theta_sum = 0;
  for (double x : theta) theta_sum += x;
  out->Set("dycuckoo.filled_factor_mean", Ratio(theta_sum, theta.size()));
  out->Set("dycuckoo.filled_factor_min",
           theta.empty() ? 0 : *std::min_element(theta.begin(), theta.end()));
  out->Set("dycuckoo.filled_factor_max",
           theta.empty() ? 0 : *std::max_element(theta.begin(), theta.end()));

  // service: TableServer::Step as served; on the sharded stack, where the
  // shard Steps run inside ShardedTableServer::Step, the replayed
  // per-shard step.  The tax is the served Step time the replayed layer
  // calls do not account for.
  std::vector<int64_t> step =
      Durations(t, run.sharded ? kReplayShardStep : kStep);
  out->Set("service.step_us_p50", Percentile(&step, 0.50) / 1e3);
  out->Set("service.step_us_p99", Percentile(&step, 0.99) / 1e3);
  const double requests = static_cast<double>(run.traced.requests);
  out->Set("service.submit_ns_per_request",
           Ratio(Sum(Durations(t, kSubmit)), requests));
  out->Set("service.take_ns_per_request",
           Ratio(Sum(Durations(t, kTake)), requests));
  out->Set("service.ops_per_launch",
           Ratio(ops, run.server_after.batch_launches -
                          run.server_before.batch_launches));
  const std::vector<int64_t> scrub = Durations(t, kScrub);
  double peeled = Sum(Durations(t, kBulkExecute)) + Sum(scrub);
  for (SpanName n : {kLogInsert, kLogErase, kCommit, kMaybeCheckpoint}) {
    peeled += Sum(Durations(t, n));
  }
  const double served_steps =
      Sum(Durations(t, run.sharded ? kShardedStep : kStep));
  out->Set("service.tax_ns_per_op", Ratio(served_steps - peeled, ops));
  out->Set("service.scrub_ns_per_op", Ratio(Sum(scrub), ops));
  out->Set("service.coalesced_fallbacks",
           run.server_after.coalesced_fallbacks -
               run.server_before.coalesced_fallbacks);
  out->Set("service.retries",
           run.server_after.retries - run.server_before.retries);

  // durability: zero throughout on a stack without a WAL.
  const DurabilityTotals& da = run.durability_before;
  const DurabilityTotals& db = run.durability_after;
  std::vector<int64_t> logs = Durations(t, kLogInsert);
  const std::vector<int64_t> erases = Durations(t, kLogErase);
  logs.insert(logs.end(), erases.begin(), erases.end());
  out->Set("durability.log_ns_per_write", Ratio(Sum(logs), logs.size()));
  std::vector<int64_t> commits = Durations(t, kCommit);
  out->Set("durability.commit_us_p50", Percentile(&commits, 0.50) / 1e3);
  out->Set("durability.commit_us_p99", Percentile(&commits, 0.99) / 1e3);
  out->Set("durability.records_per_commit",
           Ratio(db.records_logged - da.records_logged,
                 db.group_commits - da.group_commits));
  out->Set("durability.wal_bytes_per_record",
           Ratio(db.bytes_flushed - da.bytes_flushed,
                 db.records_flushed - da.records_flushed));
  out->Set("durability.write_amp",
           run.durable ? Ratio(static_cast<double>(db.bytes_flushed -
                                                   da.bytes_flushed) +
                                   run.traced.checkpoint_bytes,
                               run.traced.user_bytes_written)
                       : 0);
  out->Set("durability.checkpoints", db.checkpoints - da.checkpoints);
  std::vector<int64_t> ckpt = Durations(t, kMaybeCheckpoint, true);
  out->Set("durability.checkpoint_ms_p50", Percentile(&ckpt, 0.50) / 1e6);
  out->Set("durability.checkpoint_ms_max", Percentile(&ckpt, 1.0) / 1e6);
  out->Set("durability.replay_records", run.replay_records);

  // service.sharded: zero on the single-server stacks.
  std::vector<int64_t> sharded_step = Durations(t, kShardedStep);
  out->Set("sharded.step_us_p50", Percentile(&sharded_step, 0.50) / 1e3);
  out->Set("sharded.step_us_p99", Percentile(&sharded_step, 0.99) / 1e3);
  out->Set("sharded.subrequests_per_request",
           Ratio(run.sharded_subrequests, run.sharded_submitted));
  double imbalance = 0;
  if (run.sharded && !run.replay.ops_per_shard.empty()) {
    const auto& per = run.replay.ops_per_shard;
    double total = 0;
    for (uint64_t x : per) total += static_cast<double>(x);
    imbalance = Ratio(*std::max_element(per.begin(), per.end()),
                      total / static_cast<double>(per.size()));
  }
  out->Set("sharded.shard_op_imbalance", imbalance);

  out->Set("workload.generate_s", run.generate_seconds);
  out->Set("trace_overhead",
           1.0 - Ratio(Ratio(run.traced.ops, run.traced.seconds),
                       Ratio(run.untraced.ops, run.untraced.seconds)));

  const ExactCounts& e = run.exact;
  out->Set("exact.ops", e.ops);
  out->Set("exact.gpusim.bucket_reads", e.sim.bucket_reads);
  out->Set("exact.gpusim.bucket_writes", e.sim.bucket_writes);
  out->Set("exact.gpusim.atomics", e.sim.atomic_cas + e.sim.atomic_exch);
  out->Set("exact.dycuckoo.evictions", e.table.evictions);
  out->Set("exact.dycuckoo.upsizes", e.table.upsizes);
  out->Set("exact.dycuckoo.downsizes", e.table.downsizes);
  out->Set("exact.dycuckoo.rehashed_kvs", e.table.rehashed_kvs);
  out->Set("exact.dycuckoo.find_hits", e.table.find_hits);
  out->Set("exact.dycuckoo.stash_inserts", e.table.stash_inserts);
}

}  // namespace dyserve
