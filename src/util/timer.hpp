// Wall-clock stopwatch used by the sparsification-time benchmark (Table II)
// and progress reporting.
#pragma once

#include <chrono>

namespace splpg::util {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace splpg::util
