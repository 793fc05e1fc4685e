// Metric names, units and the per-layer ledger.
//
// Every metric the benchmark reports is declared once below, with its
// unit and which direction is better; BENCHMARK.json lists the same names
// (run.py --self-test checks the two agree).  An untraced run reports the
// end-to-end set; a traced run reports the per-layer set.

#ifndef DYSERVE_SRC_LEDGER_H_
#define DYSERVE_SRC_LEDGER_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "deployment.h"
#include "dycuckoo/stats.h"
#include "gpusim/sim_counters.h"
#include "trace.h"

namespace dyserve {

struct MetricDecl {
  const char* name;
  const char* unit;
  const char* better;  // "higher" or "lower"
};

const std::vector<MetricDecl>& EndToEndMetrics();
const std::vector<MetricDecl>& PerLayerMetrics();

/// Values for one declared set; setting an undeclared name is a bug.
class MetricSet {
 public:
  explicit MetricSet(const std::vector<MetricDecl>& decls) : decls_(&decls) {}

  void Set(const std::string& name, double value);
  const std::map<std::string, double>& values() const { return values_; }
  const std::vector<MetricDecl>& decls() const { return *decls_; }

  /// Declared names with no value yet.
  std::vector<std::string> Missing() const;

  /// "metric <name> <value> <unit>" lines, in declaration order.
  void PrintLines(std::FILE* out) const;

  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string Json() const;

 private:
  const std::vector<MetricDecl>* decls_;
  std::map<std::string, double> values_;
};

/// Nearest-rank percentile of `samples` (sorted in place); 0 if empty.
double Percentile(std::vector<int64_t>* samples, double q);

// Estimators robust to disturbances of a shared host, over `windows` equal
// consecutive stretches of a run's micro-batches (a remainder shorter than
// one stretch is dropped).

/// The `over`-quantile over stretches of each stretch's mean micro-batch
/// time, in ns.
double WindowedBatchTimeNs(const LoopResult& r, uint32_t windows, double over);

/// The `over`-quantile over stretches of each stretch's q-quantile of
/// request latency, in ns.
double WindowedLatency(const LoopResult& r, uint32_t windows, double q,
                       double over);

/// Durability counters summed over a deployment's managers.
struct DurabilityTotals {
  uint64_t records_logged = 0;
  uint64_t group_commits = 0;
  uint64_t checkpoints = 0;
  uint64_t bytes_flushed = 0;
  uint64_t records_flushed = 0;
};
DurabilityTotals CaptureDurability(Deployment* d);

/// Counts from the exact-count pass (one Grid worker, fixed seed).
struct ExactCounts {
  uint64_t ops = 0;
  dycuckoo::gpusim::SimCounters::Snapshot sim;
  dycuckoo::TableStats::Snapshot table;

  /// Every reported count equal.
  bool SameAs(const ExactCounts& o) const;
};

/// Everything a traced run gathers for the ledger.
struct TracedRun {
  LoopResult untraced;  // same stack, tracing off
  LoopResult traced;    // spans around Submit / Step / TakeResponse
  Tracer trace;         // the served spans, then the replay's spans
  ReplayResult replay;  // the traced batches through the layer APIs
  dycuckoo::gpusim::SimCounters::Snapshot sim;  // over the traced batches
  dycuckoo::TableStats::Snapshot table_before, table_after;
  dycuckoo::service::ServerStats::Snapshot server_before, server_after;
  DurabilityTotals durability_before, durability_after;
  uint64_t sharded_submitted = 0;    // front-door requests, traced batches
  uint64_t sharded_subrequests = 0;
  bool sharded = false;
  bool durable = false;
  double generate_seconds = 0;
  uint64_t replay_records = 0;  // WAL records the end-of-run Recover applied
  ExactCounts exact;
};

/// Fills every per-layer metric from a traced run.
void FillPerLayer(const TracedRun& run, MetricSet* out);

}  // namespace dyserve

#endif  // DYSERVE_SRC_LEDGER_H_
