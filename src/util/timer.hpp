// Wall-clock stopwatch used by the sparsification-time benchmark (Table II)
// and progress reporting, plus a process-CPU stopwatch for separating wall
// time from CPU time when work fans out on a pool.
#pragma once

#include <chrono>
#include <ctime>

namespace splpg::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// CPU-time stopwatch scoped to the *whole process* — every thread,
/// including pool workers. Used by the worker-parallelism benchmark: a
/// pooled section's process-CPU ≈ its serial CPU (same flops, different
/// threads), while wall time shrinks with the pool, so cpu/wall reports the
/// achieved parallelism without instrumenting each task.
class ProcessCpuStopwatch {
 public:
  ProcessCpuStopwatch() : start_(now()) {}

  void reset() noexcept { start_ = now(); }

  /// Process-CPU seconds consumed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept { return now() - start_; }

 private:
  [[nodiscard]] static double now() noexcept {
#if defined(CLOCK_PROCESS_CPUTIME_ID)
    std::timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
#else
    return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
#endif
  }

  double start_;
};

}  // namespace splpg::util
