// Ablation: voter coordination (Algorithm 1) vs a spinning leader.
//
// The voter scheme's claim: when a leader fails to take a bucket lock, the
// warp immediately revotes a different leader instead of spinning, so
// conflicting warps keep doing useful work.  Contention is concentrated by
// shrinking the bucket count, so many warps target the same buckets.

#include "bench/bench_common.h"
#include "dycuckoo/dycuckoo.h"
#include "gpusim/sim_counters.h"

namespace dycuckoo {
namespace bench {
namespace {

struct Outcome {
  double mops;
  uint64_t lock_conflicts;
};

Outcome Run(bool voter, uint64_t capacity, const workload::Dataset& data,
            uint64_t seed, gpusim::Grid* grid) {
  DyCuckooOptions o;
  o.enable_voter = voter;
  o.auto_resize = false;
  o.initial_capacity = capacity;
  o.seed = seed;
  o.grid = grid;
  std::unique_ptr<DyCuckooAdapter> t;
  CheckOk(DyCuckooAdapter::Create(o, &t), "create");
  // Repeated insert/erase rounds: long enough for warps to overlap on
  // bucket locks.
  constexpr int kRounds = 16;
  auto before = gpusim::SimCounters::Get().Capture();
  Timer timer;
  uint64_t ops = 0;
  for (int round = 0; round < kRounds; ++round) {
    Status st = t->BulkInsert(data.keys, data.values);
    if (!st.ok() && !st.IsInsertionFailure()) CheckOk(st, "insert");
    CheckOk(t->BulkErase(data.keys), "erase");
    ops += 2 * data.size();
  }
  double mops = Mops(ops, timer.ElapsedSeconds());
  auto delta = gpusim::SimCounters::Get().Capture() - before;
  return {mops, delta.lock_conflicts};
}

int Main(int argc, char** argv) {
  BenchArgs args = BenchArgs::Parse(argc, argv, /*default_scale=*/0.002);
  workload::Dataset data;
  CheckOk(workload::MakeDataset(workload::DatasetId::kRandom, args.scale,
                                args.seed, &data),
          "dataset");

  PrintHeader("Ablation: voter coordination vs spinning leader "
              "(insert/erase rounds, contention raised by shrinking the "
              "bucket count)",
              "voter resolves conflicts by revoting: fewer wasted lock "
              "attempts and better throughput as contention grows.  NOTE: "
              "lock overlap needs >= 2 physical cores; on a single core "
              "conflicts appear only at preemption points and the contrast "
              "narrows");
  PrintRow({"buckets_total", "mode", "insert_Mops", "lock_conflicts"});

  // Many workers by default so warps genuinely interleave even on small
  // hosts; --threads overrides.
  gpusim::Grid grid(args.threads != 0 ? args.threads : 16);
  // One fixed op stream; contention rises as the bucket count shrinks
  // (the ops fit the smallest configuration at theta ~0.55).
  const uint64_t smallest_capacity =
      std::max<uint64_t>(4 * 32, data.unique_keys / 16);
  workload::Dataset subset;
  subset.name = data.name;
  uint64_t keep =
      std::min<uint64_t>(static_cast<uint64_t>(smallest_capacity * 0.55),
                         data.size());
  subset.keys.assign(data.keys.begin(), data.keys.begin() + keep);
  subset.values.assign(data.values.begin(), data.values.begin() + keep);

  for (double fraction : {16.0, 4.0, 1.0}) {
    uint64_t capacity =
        static_cast<uint64_t>(smallest_capacity * fraction);
    Outcome with_voter = Run(true, capacity, subset, args.seed, &grid);
    Outcome spinning = Run(false, capacity, subset, args.seed, &grid);
    uint64_t buckets = capacity / 32;
    PrintRow({std::to_string(buckets), "voter", Fmt(with_voter.mops),
              std::to_string(with_voter.lock_conflicts)});
    PrintRow({std::to_string(buckets), "spin", Fmt(spinning.mops),
              std::to_string(spinning.lock_conflicts)});
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace dycuckoo

int main(int argc, char** argv) { return dycuckoo::bench::Main(argc, argv); }
