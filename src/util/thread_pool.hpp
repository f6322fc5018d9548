// Fixed-size thread pool with a parallel_for helper.
//
// Used for embarrassingly parallel work on both sides of the trainer: the
// master's preprocessing hot paths (per-partition sparsification, the
// per-edge exact-resistance solves, evaluation scoring) and the per-worker
// hot paths (chunked neighbor-fanout sampling, row-blocked tensor kernels).
// Worker *training* threads are managed separately by dist::DistContext
// because they are long-lived and barrier-synchronized.
//
// Kernels do not call parallel_for directly: they call for_each_index,
// which decides only the schedule. Each kernel has one loop body, run
// inline or on the pool.
//
// Exception and nesting semantics (tested in test_util.cpp):
//  * A task that throws does not kill its pool thread: `submit`'s future
//    rethrows the exception on `get()`, and `parallel_for` rethrows the
//    first chunk exception after every chunk has finished. A throwing chunk
//    abandons its own remaining indices; the other chunks still run to
//    completion. The pool stays usable afterwards.
//  * `submit` may be called from a pool worker thread (the task is simply
//    enqueued; nothing blocks).
//  * `parallel_for` called from one of this pool's own worker threads runs
//    the whole range INLINE on the calling thread instead of enqueueing.
//    Blocking on chunk futures from inside a worker would deadlock a fully
//    occupied pool; inline execution is deadlock-free and — because chunks
//    are contiguous, disjoint, and ascending — produces bytes identical to
//    the fanned-out execution.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace splpg::util {

class ThreadPool {
 public:
  /// `threads == 0` selects hardware_concurrency() (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task; the returned future resolves when it completes (and
  /// rethrows the task's exception, if any, on get()). Safe to call from a
  /// pool worker thread.
  std::future<void> submit(std::function<void()> task);

  /// Runs fn(i) for i in [begin, end), splitting the range into contiguous
  /// chunks across the pool. Blocks until all chunks finish. Exceptions from
  /// tasks propagate to the caller (first one wins). When called from one of
  /// this pool's own worker threads the range runs inline on the caller (see
  /// the nesting semantics above).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// True iff the calling thread is one of THIS pool's worker threads.
  [[nodiscard]] bool on_worker_thread() const noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, n): across `pool` when it has more than one
/// thread, else inline in ascending i. Callers give each i state no other i
/// touches, so both schedules produce the same bytes.
template <typename Fn>
void for_each_index(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool != nullptr && pool->size() > 1 && n > 1) {
    pool->parallel_for(0, n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

}  // namespace splpg::util
