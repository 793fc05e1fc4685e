// Shared helpers for the test suite: deterministic key/value generation and
// a reference model for differential testing.

#ifndef DYCUCKOO_TESTS_TEST_UTIL_H_
#define DYCUCKOO_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace dycuckoo {
namespace testing {

/// Seed override for chaos harnesses.  CI failure messages print the seed
/// that failed; rerun it locally with DYCUCKOO_CHAOS_SEED=<seed> (decimal
/// or 0x-hex).  Returns `fallback` when the variable is unset or empty.
inline uint64_t ChaosSeedFromEnv(uint64_t fallback) {
  const char* env = std::getenv("DYCUCKOO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 0);
}

/// The uniform repro line every chaos-style test attaches to its scenario
/// (via SCOPED_TRACE) so a CI failure prints a copy-pastable rerun
/// command.  `test_binary` is the executable path relative to the build
/// tree, e.g. "tests/test_resharder".
inline std::string ChaosReproLine(const char* test_binary, uint64_t seed) {
  std::string line = "repro: DYCUCKOO_CHAOS_SEED=" + std::to_string(seed);
  const char* shards = std::getenv("DYCUCKOO_SHARDS");
  if (shards != nullptr && *shards != '\0') {
    line += std::string(" DYCUCKOO_SHARDS=") + shards;
  }
  line += std::string(" ./") + test_binary;
  return line;
}

/// `count` distinct keys, none equal to the reserved sentinels.
inline std::vector<uint32_t> UniqueKeys(uint64_t count, uint64_t seed = 42) {
  std::unordered_set<uint32_t> seen;
  std::vector<uint32_t> keys;
  keys.reserve(count);
  SplitMix64 rng(seed);
  while (keys.size() < count) {
    uint32_t k = static_cast<uint32_t>(rng.Next());
    if (k >= 0xfffffffeu) continue;
    if (seen.insert(k).second) keys.push_back(k);
  }
  return keys;
}

inline std::vector<uint32_t> SequentialValues(uint64_t count,
                                              uint32_t start = 0) {
  std::vector<uint32_t> values(count);
  for (uint64_t i = 0; i < count; ++i) {
    values[i] = start + static_cast<uint32_t>(i);
  }
  return values;
}

/// How a test reaches a table's batch kernel: the single-type Bulk* call,
/// or BulkExecute with a batch holding only that op type.
enum class EntryPoint { kBulkOp, kBulkExecute };

inline void PrintTo(EntryPoint via, std::ostream* os) {
  *os << (via == EntryPoint::kBulkOp ? "Bulk*" : "BulkExecute");
}

/// `Table::MixedOp`s of one `type`, one per key (values, when given, for
/// inserts).
template <typename Table>
std::vector<typename Table::MixedOp> OneTypeOps(
    typename Table::MixedOp::Type type, const std::vector<uint32_t>& keys,
    const std::vector<uint32_t>* values = nullptr) {
  std::vector<typename Table::MixedOp> ops(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].type = type;
    ops[i].key = keys[i];
    if (values != nullptr) ops[i].value = (*values)[i];
  }
  return ops;
}

/// BulkFind of `keys` through `via`: found flags into `found`, values into
/// `values` (resized to keys.size()).
template <typename Table>
Status FindVia(EntryPoint via, Table* t, const std::vector<uint32_t>& keys,
               std::vector<uint8_t>* found,
               std::vector<uint32_t>* values = nullptr) {
  found->assign(keys.size(), 0);
  if (values != nullptr) values->assign(keys.size(), 0);
  if (via == EntryPoint::kBulkOp) {
    t->BulkFind(keys, values != nullptr ? values->data() : nullptr,
                found->data());
    return Status::OK();
  }
  auto ops = OneTypeOps<Table>(Table::MixedOp::Type::kFind, keys);
  Status st = t->BulkExecute(ops);
  for (size_t i = 0; i < ops.size(); ++i) {
    (*found)[i] = ops[i].hit;
    if (values != nullptr && ops[i].hit) (*values)[i] = ops[i].value;
  }
  return st;
}

/// BulkErase of `keys` through `via`; `*erased` receives the keys removed.
template <typename Table>
Status EraseVia(EntryPoint via, Table* t, const std::vector<uint32_t>& keys,
                uint64_t* erased) {
  if (via == EntryPoint::kBulkOp) return t->BulkErase(keys, erased);
  auto ops = OneTypeOps<Table>(Table::MixedOp::Type::kErase, keys);
  Status st = t->BulkExecute(ops);
  *erased = 0;
  for (const auto& op : ops) *erased += op.hit;
  return st;
}

/// BulkInsert of (`keys`, `values`) through `via`.
template <typename Table>
Status InsertVia(EntryPoint via, Table* t, const std::vector<uint32_t>& keys,
                 const std::vector<uint32_t>& values) {
  if (via == EntryPoint::kBulkOp) return t->BulkInsert(keys, values);
  auto ops = OneTypeOps<Table>(Table::MixedOp::Type::kInsert, keys, &values);
  return t->BulkExecute(ops);
}

/// Host-side reference map for differential testing.
class ReferenceModel {
 public:
  void Insert(uint32_t k, uint32_t v) { map_[k] = v; }
  bool Find(uint32_t k, uint32_t* v) const {
    auto it = map_.find(k);
    if (it == map_.end()) return false;
    if (v != nullptr) *v = it->second;
    return true;
  }
  bool Erase(uint32_t k) { return map_.erase(k) > 0; }
  uint64_t size() const { return map_.size(); }
  const std::unordered_map<uint32_t, uint32_t>& map() const { return map_; }

 private:
  std::unordered_map<uint32_t, uint32_t> map_;
};

}  // namespace testing
}  // namespace dycuckoo

#endif  // DYCUCKOO_TESTS_TEST_UTIL_H_
