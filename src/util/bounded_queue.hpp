// Bounded blocking queue for producer/consumer hand-off: the serving
// request queue. One way to stop, close(): pushes start failing, but every
// item already queued still pops; a blocking pop() returns nullopt once the
// queue is drained. The serving shutdown path ("drain in-flight requests,
// then stop") is exactly this.
//
// Any number of producers and consumers may call concurrently; items pushed
// by one thread pop in that thread's push order (FIFO overall — the mutex
// serializes pushes).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>

namespace splpg::util {

template <typename T>
class BoundedQueue {
 public:
  /// Capacity caps how far producers can run ahead (memory bound); clamped
  /// to at least 1.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (dropping the item) once the queue is
  /// closed.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty and open. Returns nullopt once closed and fully
  /// drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    return pop_locked();
  }

  /// Non-blocking pop: nullopt when the queue holds nothing retrievable.
  std::optional<T> try_pop() {
    const std::unique_lock<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    return pop_locked();
  }

  /// Graceful stop: subsequent pushes fail; queued items still pop.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

 private:
  std::optional<T> pop_locked() {
    std::optional<T> item(std::move(items_.front()));
    items_.pop();
    not_full_.notify_one();
    return item;
  }

  std::size_t capacity_;
  std::queue<T> items_;
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  bool closed_ = false;
};

}  // namespace splpg::util
