// Bounded admission queue for the serving layer.
//
// Overload safety starts here: the queue has a hard capacity and Push
// reports kResourceExhausted instead of buffering without bound, so a
// client that outruns the table sees explicit backpressure (and can shed
// or retry) rather than growing the server's memory until it dies.

#ifndef DYCUCKOO_SERVICE_ADMISSION_QUEUE_H_
#define DYCUCKOO_SERVICE_ADMISSION_QUEUE_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace dycuckoo {
namespace service {

/// \brief Mutex-guarded FIFO with a hard capacity.
///
/// Producers (client threads calling Submit) race against the single
/// consumer (the serving thread draining micro-batches); the lock is held
/// only for the deque operation.
template <typename T>
class AdmissionQueue {
 public:
  explicit AdmissionQueue(uint64_t capacity) : capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Enqueues, or rejects with kResourceExhausted when the queue is at
  /// capacity.  Never blocks.
  Status Push(T item) {
    common::MutexLock lock(mu_);
    if (items_.size() >= capacity_) return Full(capacity_);
    items_.push_back(std::move(item));
    return Status::OK();
  }

  /// The rejection for a queue of `capacity` that is full.
  static Status Full(uint64_t capacity) {
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(capacity) + " requests)");
  }

  /// Dequeues the oldest item; false when empty.
  bool Pop(T* out) {
    common::MutexLock lock(mu_);
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  uint64_t size() const {
    common::MutexLock lock(mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }
  uint64_t capacity() const { return capacity_; }

 private:
  const uint64_t capacity_;
  mutable common::Mutex mu_;
  std::deque<T> items_ GUARDED_BY(mu_);
};

}  // namespace service
}  // namespace dycuckoo

#endif  // DYCUCKOO_SERVICE_ADMISSION_QUEUE_H_
