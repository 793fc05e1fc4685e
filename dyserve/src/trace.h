// In-memory spans for the traced run.
//
// A span is a name, a start, an end, its parent span and the micro-batch it
// belongs to (spans of one micro-batch share that id).  The benchmark opens
// spans around its own calls into each layer's public entry points; nothing
// inside the library is instrumented.  Self time is a span's duration minus
// the time its direct children cover.

#ifndef DYSERVE_SRC_TRACE_H_
#define DYSERVE_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace dyserve {

enum SpanName : uint8_t {
  kSubmit,            // TableServer / ShardedTableServer::Submit
  kStep,              // TableServer::Step
  kShardedStep,       // ShardedTableServer::Step
  kTake,              // TakeResponse
  kReplayBatch,       // one micro-batch replayed through the layers
  kReplayShardStep,   // one shard's share of it, driven like TableServer::Step
  kBulkExecute,       // DynamicTable::BulkExecute
  kLogInsert,         // DurabilityManager::LogInsert
  kLogErase,          // DurabilityManager::LogErase
  kCommit,            // DurabilityManager::Commit
  kMaybeCheckpoint,   // DurabilityManager::MaybeCheckpoint
  kScrub,             // OnlineScrubber::Step (+ the resize it may trigger)
  kRecover,           // durability::Recover / RecoverAllShards / Load
  kNumSpanNames,
};

inline const char* SpanNameString(SpanName n) {
  static const char* const kNames[kNumSpanNames] = {
      "TableServer.Submit",       "TableServer.Step",
      "ShardedTableServer.Step",  "TableServer.TakeResponse",
      "replay.batch",             "replay.shard_step",
      "DynamicTable.BulkExecute", "DurabilityManager.LogInsert",
      "DurabilityManager.LogErase", "DurabilityManager.Commit",
      "DurabilityManager.MaybeCheckpoint", "OnlineScrubber.Step",
      "durability.Recover",
  };
  return kNames[n];
}

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t parent = 0;  // 1-based index of the parent span; 0 = root
  uint32_t batch = 0;
  SpanName name = kSubmit;
  bool marked = false;  // kMaybeCheckpoint: a checkpoint was taken

  int64_t duration() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its id (1-based).
  uint32_t Begin(SpanName name, uint32_t batch) {
    Span s;
    s.name = name;
    s.batch = batch;
    s.parent = open_.empty() ? 0 : open_.back();
    spans_.push_back(s);
    const uint32_t id = static_cast<uint32_t>(spans_.size());
    open_.push_back(id);
    spans_.back().start_ns = NowNs();
    return id;
  }

  void End(uint32_t id) {
    spans_[id - 1].end_ns = NowNs();
    open_.pop_back();
  }

  void Mark(uint32_t id) { spans_[id - 1].marked = true; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: duration minus the durations of its direct children.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
    for (const Span& s : spans_) {
      if (s.parent != 0) self[s.parent - 1] -= s.duration();
    }
    return self;
  }

  /// Writes id,parent,batch,name,start_ns,end_ns,self_ns,count lines.  A
  /// run of consecutive childless spans with the same name, parent and
  /// micro-batch (a batch's Submits, its per-write Log* calls) is one line:
  /// the first id, the run's extent, its summed self time and its length.
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,batch,name,start_ns,end_ns,self_ns,count\n");
    const std::vector<int64_t> self = SelfTimes();
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& s : spans_) {
      if (s.parent != 0) has_child[s.parent - 1] = true;
    }
    const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (size_t i = 0; i < spans_.size();) {
      const Span& s = spans_[i];
      size_t end = i + 1;
      int64_t self_sum = self[i];
      while (!has_child[i] && end < spans_.size() && !has_child[end] &&
             spans_[end].name == s.name && spans_[end].parent == s.parent &&
             spans_[end].batch == s.batch) {
        self_sum += self[end++];
      }
      std::fprintf(f, "%zu,%u,%u,%s,%lld,%lld,%lld,%zu\n", i + 1, s.parent,
                   s.batch, SpanNameString(s.name),
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(spans_[end - 1].end_ns - t0),
                   static_cast<long long>(self_sum), end - i);
      i = end;
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// A span for the enclosing scope; a no-op when `tracer` is null (the
/// untraced runs pay no clock reads).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, uint32_t batch)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, batch) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Mark() {
    if (tracer_ != nullptr) tracer_->Mark(id_);
  }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

}  // namespace dyserve

#endif  // DYSERVE_SRC_TRACE_H_
