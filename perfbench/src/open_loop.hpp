// Open-loop load generation with due-time accounting.
//
// Request i is due at start + i / rate whether or not earlier requests have
// finished, the way independent users arrive. Its latency runs from its due
// time, not from when it was actually sent, so a stall anywhere (in the
// server, or in the generator itself) is charged to every request that was
// due during it. How late the generator sent each request is kept too.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

struct OpenLoopSample {
  double due_s = 0.0;   ///< scheduled send time, seconds after the phase start
  double sent_s = 0.0;  ///< actual send time
  double done_s = 0.0;  ///< reply received
  bool ok = false;      ///< reply arrived and passed the check

  [[nodiscard]] double latency_s() const { return done_s - due_s; }
  [[nodiscard]] double late_s() const { return sent_s - due_s; }
};

/// Sends `count` requests at `rate` per second from one generator thread and
/// collects the replies, in send order, on one collector thread.
/// `submit(i)` returns a std::future for request i; `check(i, reply)` says
/// whether the reply is acceptable. A submit or get that throws marks the
/// request failed. Replies must complete in send order (the serving layer's
/// FIFO contract), so an in-order collector stamps each one when it arrives.
template <class Submit, class Check>
std::vector<OpenLoopSample> run_open_loop(std::size_t count, double rate, Submit submit,
                                          Check check) {
  using Clock = std::chrono::steady_clock;
  using Future = decltype(submit(std::size_t{0}));
  std::vector<OpenLoopSample> samples(count);
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::optional<Future>> in_flight;  // nullopt = submit threw

  const Clock::time_point start = Clock::now();
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::thread collector([&] {
    for (std::size_t i = 0; i < count; ++i) {
      std::optional<Future> future;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return !in_flight.empty(); });
        future = std::move(in_flight.front());
        in_flight.pop_front();
      }
      bool ok = false;
      if (future.has_value()) {
        try {
          ok = check(i, future->get());
        } catch (...) {
          ok = false;
        }
      }
      samples[i].done_s = since_start();
      samples[i].ok = ok;
    }
  });

  for (std::size_t i = 0; i < count; ++i) {
    samples[i].due_s = static_cast<double>(i) / rate;
    std::this_thread::sleep_until(start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(samples[i].due_s)));
    samples[i].sent_s = since_start();
    std::optional<Future> future;
    try {
      future.emplace(submit(i));
    } catch (...) {
      future.reset();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex);
      in_flight.push_back(std::move(future));
    }
    ready.notify_one();
  }
  collector.join();
  return samples;
}

}  // namespace perfbench
