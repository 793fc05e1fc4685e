// Last-writer-wins folding of an ordered write stream, applied in bulk.
//
// A stream of upserts and erases (a WAL suffix, a reshard chunk's copy, a
// micro-batch's writes in admission order) leaves a table in the same state
// as its *net* writes: for every key only the last write counts, because an
// upsert overwrites whatever came before it and an erase removes it.
// WriteFold keeps that net write per key; ApplyTo() lands the whole set with
// a handful of batched launches instead of one launch per write:
//
//   1. BulkErase  the net erases;
//   2. BulkFind   the net upserts, splitting resident keys from new ones;
//   3. BulkInsert the resident keys (update-only: no evictions), then
//      BulkInsert the new keys.
//
// Every call's key set is duplicate-free and disjoint from the others', and
// no batch mixes upserts of resident keys with new-key inserts, which is
// exactly the condition DynamicTable::BulkInsert documents for deterministic
// upserts.  Disjoint key sets make the order of the calls irrelevant to the
// resulting contents.

#ifndef DYCUCKOO_DYCUCKOO_WRITE_FOLD_H_
#define DYCUCKOO_DYCUCKOO_WRITE_FOLD_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dycuckoo/dynamic_table.h"

namespace dycuckoo {

/// \brief The net effect, per key, of an ordered sequence of writes.
template <typename Key, typename Value>
class WriteFold {
 public:
  /// Records an upsert of `key`, superseding any earlier write of it.
  void Upsert(Key key, Value value) { Slot(key) = {key, value, false}; }

  /// Records an erase of `key`, superseding any earlier write of it.
  void Erase(Key key) { Slot(key) = {key, Value{}, true}; }

  void Clear() {
    writes_.clear();
    index_.clear();
  }

  /// Lands every net write in `table` (see the file comment).  Stops at the
  /// first failing call and returns its Status; the table then holds a
  /// prefix of the calls' effects.
  Status ApplyTo(DynamicTable<Key, Value>* table) const {
    std::vector<Key> erase_keys;
    std::vector<Key> upsert_keys;
    std::vector<Value> upsert_values;
    for (const NetWrite& w : writes_) {
      if (w.erase) {
        erase_keys.push_back(w.key);
      } else {
        upsert_keys.push_back(w.key);
        upsert_values.push_back(w.value);
      }
    }
    DYCUCKOO_RETURN_NOT_OK(table->BulkErase(erase_keys));
    if (upsert_keys.empty()) return Status::OK();

    std::vector<uint8_t> resident(upsert_keys.size());
    table->BulkFind(upsert_keys, nullptr, resident.data());
    // Stable partition in place: residents to the front, in first-write
    // order, new keys behind them.
    std::vector<Key> new_keys;
    std::vector<Value> new_values;
    size_t n_resident = 0;
    for (size_t i = 0; i < upsert_keys.size(); ++i) {
      if (resident[i]) {
        upsert_keys[n_resident] = upsert_keys[i];
        upsert_values[n_resident] = upsert_values[i];
        ++n_resident;
      } else {
        new_keys.push_back(upsert_keys[i]);
        new_values.push_back(upsert_values[i]);
      }
    }
    DYCUCKOO_RETURN_NOT_OK(table->BulkInsert(
        std::span<const Key>(upsert_keys.data(), n_resident),
        std::span<const Value>(upsert_values.data(), n_resident)));
    return table->BulkInsert(new_keys, new_values);
  }

 private:
  struct NetWrite {
    Key key{};
    Value value{};  // meaningful only when !erase
    bool erase = false;
  };

  NetWrite& Slot(Key key) {
    auto [it, fresh] = index_.try_emplace(key, writes_.size());
    if (fresh) writes_.emplace_back();
    return writes_[it->second];
  }

  std::vector<NetWrite> writes_;  // one per distinct key, first-write order
  std::unordered_map<Key, size_t> index_;  // key -> position in writes_
};

}  // namespace dycuckoo

#endif  // DYCUCKOO_DYCUCKOO_WRITE_FOLD_H_
