// dyserve: one seeded closed-loop benchmark of the serving stack.
//
//   dyserve --workload <read_mostly|durable_churn|sharded_uniform>
//           --seed <n> --seconds <s> --trace <0|1>
//           [--commit <id>] [--trace-out <file.csv>]
//   dyserve --self-test
//   dyserve --list-metrics
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs the same stream with spans around the served calls, replays the
// same micro-batches through each layer's public API with a span around
// every call, and reports the per-layer ledger (ledger.h), including an
// exact-count pass on a one-worker Grid.  Every response is checked
// against a shadow model; a mismatch exits 3 with a one-line repro.  The
// last line of standard output is one JSON object with the results.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "deployment.h"
#include "gpusim/grid.h"
#include "gpusim/sim_counters.h"
#include "ledger.h"
#include "workloads.h"

namespace dyserve {
namespace {

// Throughput is the upper quartile over kStretches equal stretches of the
// measured phase.  Request p50 and p99 are the lower quartile over windows
// of kLatencyWindow micro-batches (16384 requests, 163 beyond the p99) of
// each window's quantile.  Each is what a quarter of the run achieves:
// host stalls that miss a quarter of the stretches or windows move none of
// them, while each stretch and window still spans the checkpoints and
// resizes whose cost they must carry.
constexpr uint32_t kStretches = 8;
constexpr uint32_t kLatencyWindow = 256;
constexpr uint32_t kMinBatches = 2 * kLatencyWindow;
// At most this many serving grid workers, whatever nproc is.  A third
// worker does not raise throughput on a 4-vCPU host (the serving thread's
// serial work bounds it); it only adds a wake-up to every launch.
constexpr unsigned kMaxGridWorkers = 2;
// The same crash images are recovered this many times, spread evenly over
// the measured phase; recovery_s is the fastest.  Replay is thousands of
// small grid launches, which a contended host slows far more than batched
// serving, so one stall of the host must not cover every recovery.
constexpr size_t kRecoverRepeats = 8;
// A traced run spans at most this many micro-batches (spans stay in
// memory until exit).
constexpr uint32_t kMaxTracedBatches = 1000;
// Micro-batches served between the forced checkpoint and the crash: few
// enough that no automatic checkpoint (1 MiB of WAL) falls in between.
constexpr uint32_t kEpilogueBatches = 12;
constexpr int kSetupRepeats = 3;
constexpr uint64_t kExactSeed = 1;
constexpr uint32_t kExactBatches = 24;

struct Env {
  unsigned nproc = 1;
  unsigned grid_workers = 1;
  // Recovery runs on a Grid of its own with one worker, one shard after
  // another.  Replay is thousands of small launches: with the serving
  // grid's workers each launch waits on wake-ups across vCPUs, which made
  // recovery up to twice as slow and far less steady on a shared host.
  dycuckoo::gpusim::Grid* recovery_grid = nullptr;
  int recover_parallel = 1;
};

struct Outcome {
  explicit Outcome(const std::vector<MetricDecl>& decls) : metrics(decls) {}
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

unsigned Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Refuses builds and environments whose numbers would not be comparable;
/// returns false with the reason printed.
bool CheckEnvironment(Env* env) {
  const std::string build_type = DYSERVE_BUILD_TYPE;
  if (SanitizerBuild()) {
    std::fprintf(stderr, "dyserve: refusing to run a sanitizer build\n");
    return false;
  }
  if (build_type != "Release" && build_type != "RelWithDebInfo") {
    std::fprintf(stderr, "dyserve: refusing to run a '%s' build; use "
                 "Release or RelWithDebInfo\n", build_type.c_str());
    return false;
  }
  const char* racecheck = std::getenv("DYCUCKOO_RACECHECK");
  if (racecheck != nullptr && *racecheck != '\0') {
    std::fprintf(stderr, "dyserve: refusing to run with DYCUCKOO_RACECHECK "
                 "set\n");
    return false;
  }
  // The benchmark thread blocks in every launch, so with the grid workers
  // it never oversubscribes the host.
  env->nproc = Nproc();
  env->grid_workers = std::min(env->nproc > 1 ? env->nproc - 1 : 0,
                               kMaxGridWorkers);
  if (env->grid_workers == 0 || 1 + env->grid_workers > env->nproc ||
      env->recover_parallel > static_cast<int>(env->nproc)) {
    std::fprintf(stderr, "dyserve: thread budget exceeds nproc=%u\n",
                 env->nproc);
    return false;
  }
  return true;
}

/// Generation, construction, preload and warm-up: the work setup_s times.
/// Returns the index of the last micro-batch served.
uint32_t Setup(const WorkloadSpec& spec, const RunId& id,
               dycuckoo::gpusim::Grid* grid, std::unique_ptr<Generator>* gen,
               std::unique_ptr<Deployment>* dep) {
  dep->reset();  // release the previous set-up's memory first
  gen->reset();
  *gen = MakeGenerator(spec, id.seed);
  *dep = std::make_unique<Deployment>(spec, grid);
  (*dep)->Preload((*gen)->preload());
  (*gen)->ReleasePreload();
  LoopOptions warm;
  if (spec.com_scale > 0) {
    warm.seconds = 0;  // one whole grow/drain cycle
    warm.whole_cycles = true;
  } else {
    warm.max_batches = static_cast<uint32_t>(spec.warmup_batches);
  }
  return RunClosedLoop(dep->get(), gen->get(), warm, id).last_batch;
}

/// A crash-style stop.  A durable stack takes a checkpoint on every shard,
/// serves kEpilogueBatches micro-batches, then stops dead: its images are
/// captured as a process death would leave them and recovered once.
/// Pinning the crash to the same distance from a checkpoint on every run
/// keeps the recovery work, and so recovery_s, the same size.  The recovery
/// is checked against the live tables and the model.
struct Crash {
  Deployment::Images images;
  std::vector<Digest> digests;  // of the checked recovery, per shard
  uint32_t batch = 0;           // the last micro-batch before the crash
  double seconds = 0;
  uint64_t replay_records = 0;
};

Crash CrashAndRecover(Deployment* dep, Generator* gen, const RunId& id,
                      const Env& env, uint32_t last_batch, Tracer* tracer) {
  if (dep->spec().durable) {
    dep->CheckpointAll();
    LoopOptions lo;
    lo.max_batches = kEpilogueBatches;
    last_batch = RunClosedLoop(dep, gen, lo, id).last_batch;
  }
  Crash c;
  c.images = dep->CaptureImages();
  c.batch = last_batch;
  const Deployment::Recovered rec =
      dep->Recover(c.images, env.recovery_grid, env.recover_parallel, tracer);
  VerifyRecovered(dep, rec, gen->model(), id, last_batch);
  c.digests = RecoveredDigests(rec);
  c.seconds = rec.seconds;
  c.replay_records = rec.replay_records;
  return c;
}

Outcome RunEndToEnd(const WorkloadSpec& spec, const RunId& id, double seconds,
                    dycuckoo::gpusim::Grid* grid, const Env& env) {
  Outcome out(EndToEndMetrics());
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Deployment> dep;
  std::vector<int64_t> setup_ns;
  uint32_t last_batch = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    last_batch = Setup(spec, id, grid, &gen, &dep);
    setup_ns.push_back(NowNs() - t0);
  }

  // The crash images recovery_s times are taken before the measured phase,
  // so that their recoveries can be spread over it.
  const Crash crash =
      CrashAndRecover(dep.get(), gen.get(), id, env, last_batch, nullptr);
  std::vector<double> recover_s = {crash.seconds};
  auto recover_again = [&] {
    const Deployment::Recovered rec =
        dep->Recover(crash.images, env.recovery_grid, env.recover_parallel,
                     nullptr);
    if (RecoveredDigests(rec) != crash.digests) {
      throw OracleMismatch(
          "oracle mismatch: workload=" + id.workload + " seed=" +
          std::to_string(id.seed) + " micro_batch=" +
          std::to_string(crash.batch) + " recovery " +
          std::to_string(recover_s.size() + 1) +
          " of the same images differs from the first");
    }
    recover_s.push_back(rec.seconds);
  };

  LoopOptions lo;
  lo.seconds = seconds;
  lo.min_batches = kMinBatches;
  lo.whole_cycles = spec.com_scale > 0;
  lo.between_chunks = [&](double timed_s) {
    if (recover_s.size() < kRecoverRepeats &&
        timed_s >= seconds * static_cast<double>(recover_s.size()) /
                       kRecoverRepeats) {
      recover_again();
    }
  };
  LoopResult r = RunClosedLoop(dep.get(), gen.get(), lo, id);
  while (recover_s.size() < kRecoverRepeats) recover_again();
  // Acked = recovered at the end of the run too.
  const Crash end =
      CrashAndRecover(dep.get(), gen.get(), id, env, r.last_batch, nullptr);

  static_assert(kLatencyWindow * kClients / 100 >= 10,
                "a latency window needs ten samples beyond its p99");
  const uint64_t samples = r.latency_ns.size();
  const uint32_t windows = r.batches / kLatencyWindow;
  out.metrics.Set("throughput_mops",
                  kBatchOps * 1e3 / WindowedBatchTimeNs(r, kStretches, 0.25));
  out.metrics.Set("request_p50_us",
                  WindowedLatency(r, windows, 0.50, 0.25) / 1e3);
  out.metrics.Set("request_p99_us",
                  WindowedLatency(r, windows, 0.99, 0.25) / 1e3);
  out.metrics.Set("bytes_per_key", r.memory_bytes_sum / r.live_keys_sum);
  out.metrics.Set("recovery_s",
                  *std::min_element(recover_s.begin(), recover_s.end()));
  out.metrics.Set("setup_s", Percentile(&setup_ns, 0.5) * 1e-9);
  out.attempted = r.ops;
  out.failed = r.failed_ops;

  std::printf("info request_samples %llu\n",
              static_cast<unsigned long long>(samples));
  std::printf("info failed_op_ratio %.9g\n",
              static_cast<double>(r.failed_ops) / static_cast<double>(r.ops));
  // Percentile sorts the samples: the whole-run figures come last.
  std::printf("info measured_s %.6f batches %u whole_run_mops %.6g "
              "whole_run_p50_us %.6g whole_run_p99_us %.6g\n",
              r.seconds, r.batches, r.ops / r.seconds / 1e6,
              Percentile(&r.latency_ns, 0.50) / 1e3,
              Percentile(&r.latency_ns, 0.99) / 1e3);
  std::printf("info setup_s_each");
  for (int64_t ns : setup_ns) std::printf(" %.4f", ns * 1e-9);
  std::printf("\ninfo recovery_s_each");
  for (double s : recover_s) std::printf(" %.4f", s);
  uint64_t recovered_keys = 0;
  for (const Digest& d : crash.digests) recovered_keys += d.count;
  std::printf("\ninfo recovered_keys %llu replay_records %llu "
              "end_of_run_recovery_s %.4f\n",
              static_cast<unsigned long long>(recovered_keys),
              static_cast<unsigned long long>(crash.replay_records),
              end.seconds);
  return out;
}

ExactCounts ExactPass(const WorkloadSpec& spec) {
  dycuckoo::gpusim::Grid one_worker(1);
  const WorkloadSpec tiny = TinyVersion(spec);
  const RunId id{spec.name, kExactSeed};
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Deployment> dep;
  Setup(tiny, id, &one_worker, &gen, &dep);
  auto& counters = dycuckoo::gpusim::SimCounters::Get();
  const auto sim0 = counters.Capture();
  const auto t0 = dep->table_stats();
  LoopOptions lo;
  lo.max_batches = kExactBatches;
  const LoopResult r = RunClosedLoop(dep.get(), gen.get(), lo, id);
  const auto t1 = dep->table_stats();
  ExactCounts c;
  c.ops = r.ops;
  c.sim = counters.Capture() - sim0;
  c.table.evictions = t1.evictions - t0.evictions;
  c.table.upsizes = t1.upsizes - t0.upsizes;
  c.table.downsizes = t1.downsizes - t0.downsizes;
  c.table.rehashed_kvs = t1.rehashed_kvs - t0.rehashed_kvs;
  c.table.find_hits = t1.find_hits - t0.find_hits;
  c.table.stash_inserts = t1.stash_inserts - t0.stash_inserts;
  return c;
}

Outcome RunTraced(const WorkloadSpec& spec, const RunId& id, double seconds,
                  dycuckoo::gpusim::Grid* grid, const Env& env,
                  const std::string& trace_out) {
  Outcome out(PerLayerMetrics());
  auto run = std::make_unique<TracedRun>();
  run->sharded = spec.sharded;
  run->durable = spec.durable;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Deployment> dep;
  Setup(spec, id, grid, &gen, &dep);
  run->generate_seconds = gen->generate_seconds();

  // Half the time untraced, then the same stream with spans.
  LoopOptions lo;
  lo.seconds = seconds / 2;
  lo.min_batches = kMinBatches;
  run->untraced = RunClosedLoop(dep.get(), gen.get(), lo, id);

  auto& counters = dycuckoo::gpusim::SimCounters::Get();
  const auto sim0 = counters.Capture();
  run->table_before = dep->table_stats();
  run->server_before = dep->server_stats();
  run->durability_before = CaptureDurability(dep.get());
  const auto* sharded = dep->sharded_stats();
  const uint64_t submitted0 = sharded ? sharded->submitted.load() : 0;
  const uint64_t subrequests0 = sharded ? sharded->subrequests.load() : 0;
  lo.max_batches = kMaxTracedBatches;
  lo.tracer = &run->trace;
  lo.sample_theta = true;
  run->traced = RunClosedLoop(dep.get(), gen.get(), lo, id);
  run->sim = counters.Capture() - sim0;
  run->table_after = dep->table_stats();
  run->server_after = dep->server_stats();
  run->durability_after = CaptureDurability(dep.get());
  if (sharded != nullptr) {
    run->sharded_submitted = sharded->submitted.load() - submitted0;
    run->sharded_subrequests = sharded->subrequests.load() - subrequests0;
  }
  run->replay_records =
      CrashAndRecover(dep.get(), gen.get(), id, env,
                      run->traced.last_batch, &run->trace)
          .replay_records;

  // The same micro-batches again, through the layer APIs of a fresh stack
  // built from the same seed: the untraced stretch to reach the same
  // state, then the traced one with a span per call.
  Setup(spec, id, grid, &gen, &dep);
  Replay(dep.get(), gen.get(), run->untraced.batches, nullptr, id);
  run->replay =
      Replay(dep.get(), gen.get(), run->traced.batches, &run->trace, id);
  dep.reset();
  gen.reset();

  run->exact = ExactPass(spec);
  if (!run->exact.SameAs(ExactPass(spec))) {
    std::fprintf(stderr, "dyserve: the exact-count pass of %s gave different "
                 "counts on two repetitions at seed %llu\n", spec.name,
                 static_cast<unsigned long long>(kExactSeed));
    std::exit(4);
  }

  FillPerLayer(*run, &out.metrics);
  out.attempted = run->untraced.ops + run->traced.ops + run->replay.ops;
  out.failed = run->untraced.failed_ops + run->traced.failed_ops +
               run->replay.failed_ops;
  std::printf("info traced_batches %u spans %zu\n", run->traced.batches,
              run->trace.spans().size());
  if (!trace_out.empty() && !run->trace.WriteCsv(trace_out)) {
    std::fprintf(stderr, "dyserve: could not write %s\n", trace_out.c_str());
  }
  return out;
}

// --- Self-test -------------------------------------------------------------

bool ValidName(const std::string& s, size_t max_len, const char* extra) {
  if (s.empty() || s.size() > max_len) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || std::strchr(extra, c) != nullptr;
    if (!ok) return false;
  }
  return true;
}

/// Every declared metric emitted, every name and unit well-formed.
bool CheckEmitted(const MetricSet& m, const std::string& what) {
  bool ok = true;
  for (const std::string& name : m.Missing()) {
    std::printf("self-test FAIL %s: metric %s not emitted\n", what.c_str(),
                name.c_str());
    ok = false;
  }
  for (const MetricDecl& d : m.decls()) {
    if (!ValidName(d.name, 64, "_.-") || !ValidName(d.unit, 16, "_/%.-")) {
      std::printf("self-test FAIL %s: bad name or unit '%s' '%s'\n",
                  what.c_str(), d.name, d.unit);
      ok = false;
    }
  }
  return ok;
}

/// Wraps a generator and corrupts the first expected find answer.
class PlantedWrongAnswer : public Generator {
 public:
  explicit PlantedWrongAnswer(Generator* inner) : inner_(inner) {}
  void Next(MicroBatch* out) override {
    inner_->Next(out);
    for (size_t i = 0; i < out->ops.size(); ++i) {
      if (out->ops[i].type == OpType::kFind) {
        out->expect[i].hit ^= 1;
        return;
      }
    }
  }

 private:
  Generator* inner_;
};

int SelfTest(dycuckoo::gpusim::Grid* grid, const Env& env) {
  bool ok = true;
  for (const WorkloadSpec& full : AllWorkloads()) {
    const WorkloadSpec spec = TinyVersion(full);
    const RunId id{spec.name, 7};
    ok &= CheckEmitted(RunEndToEnd(spec, id, 0.05, grid, env).metrics,
                       std::string(spec.name) + " --trace 0");
    ok &= CheckEmitted(RunTraced(spec, id, 0.1, grid, env, "").metrics,
                       std::string(spec.name) + " --trace 1");

    std::unique_ptr<Generator> gen;
    std::unique_ptr<Deployment> dep;
    Setup(spec, id, grid, &gen, &dep);
    PlantedWrongAnswer planted(gen.get());
    LoopOptions one;
    one.max_batches = 1;
    bool caught = false;
    try {
      RunClosedLoop(dep.get(), &planted, one, id);
    } catch (const OracleMismatch& e) {
      caught = true;
      std::printf("self-test %s: planted wrong response caught: %s\n",
                  spec.name, e.what());
    }
    if (!caught) {
      std::printf("self-test FAIL %s: planted wrong response not caught\n",
                  spec.name);
      ok = false;
    }

    // Serve a few more batches so the table holds keys, then recover and
    // drop one resident key from the recovered copy.
    one.max_batches = 4;
    const uint32_t last = RunClosedLoop(dep.get(), gen.get(), one, id).last_batch;
    Deployment::Recovered rec =
        dep->Recover(dep->CaptureImages(), env.recovery_grid,
                     env.recover_parallel, nullptr);
    const Key victim = gen->model().key_at(0);
    (void)rec.tables[dep->ShardOf(victim)]->Erase(victim);
    caught = false;
    try {
      VerifyRecovered(dep.get(), rec, gen->model(), id, last);
    } catch (const OracleMismatch& e) {
      caught = true;
      std::printf("self-test %s: planted digest mismatch caught: %s\n",
                  spec.name, e.what());
    }
    if (!caught) {
      std::printf("self-test FAIL %s: planted digest mismatch not caught\n",
                  spec.name);
      ok = false;
    }
  }
  std::printf("self-test %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// --- Command line ----------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: dyserve --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--trace-out <file>]\n"
               "       dyserve --self-test | --list-metrics\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload, commit = "unknown", trace_out;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool self_test = false, list_metrics = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--list-metrics") {
      list_metrics = true;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (a == "--commit" && has_value) {
      commit = argv[++i];
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (list_metrics) {
    for (const MetricDecl& d : EndToEndMetrics()) {
      std::printf("end_to_end %s %s %s\n", d.name, d.unit, d.better);
    }
    for (const MetricDecl& d : PerLayerMetrics()) {
      std::printf("per_layer %s %s %s\n", d.name, d.unit, d.better);
    }
    return 0;
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (!self_test && (spec == nullptr || seconds <= 0 ||
                     (trace != 0 && trace != 1))) {
    return Usage();
  }

  Env env;
  if (!CheckEnvironment(&env)) return 2;
  std::printf("env nproc=%u grid_workers=%u recovery_grid_workers=1 "
              "recover_parallel=%d build_type=%s compiler=\"%s\" "
              "commit=%s\n",
              env.nproc, env.grid_workers, env.recover_parallel,
              DYSERVE_BUILD_TYPE, __VERSION__, commit.c_str());
  dycuckoo::gpusim::Grid grid(env.grid_workers);
  dycuckoo::gpusim::Grid recovery_grid(1);
  env.recovery_grid = &recovery_grid;
  try {
    if (self_test) return SelfTest(&grid, env);
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n", spec->name,
                static_cast<unsigned long long>(seed), seconds, trace);
    const RunId id{spec->name, seed};
    Outcome o = trace ? RunTraced(*spec, id, seconds, &grid, env, trace_out)
                      : RunEndToEnd(*spec, id, seconds, &grid, env);
    o.metrics.PrintLines(stdout);
    std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed),
                o.metrics.Json().c_str());
    return 0;
  } catch (const OracleMismatch& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "%s\n", e.what());
    std::printf("%s\n", e.what());
    return 3;
  }
}

}  // namespace
}  // namespace dyserve

int main(int argc, char** argv) { return dyserve::Main(argc, argv); }
