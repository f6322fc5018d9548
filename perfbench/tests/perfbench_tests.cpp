// Tests of the benchmark's own machinery: tail percentiles, the Zipf
// sampler, open-loop due-time accounting and span self time.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <numeric>
#include <sstream>
#include <thread>
#include <vector>

#include "open_loop.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "zipf.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> values(n);
  std::iota(values.begin(), values.end(), 1.0);
  return values;
}

TEST(TailPercentile, P99NeedsTenSamplesBeyondIt) {
  const Tail tail = tail_percentile(one_to(1000));
  EXPECT_EQ(tail.percentile, 99.0);
  EXPECT_EQ(tail.value, 990.0);  // 10 samples (991..1000) lie beyond it
  EXPECT_EQ(tail.samples, 1000U);
  EXPECT_EQ(samples_beyond(1000, 99.0), 10U);
}

TEST(TailPercentile, FallsBackWhenTheSampleIsTooSmall) {
  EXPECT_EQ(tail_percentile(one_to(999)).percentile, 95.0);  // p99 would have 9 beyond
  EXPECT_EQ(tail_percentile(one_to(10'000)).percentile, 99.9);
  EXPECT_EQ(tail_percentile(one_to(40)).percentile, 75.0);
  EXPECT_EQ(tail_percentile(one_to(5)).percentile, 0.0);  // nothing qualifies
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> values = one_to(200);
  std::reverse(values.begin(), values.end());
  EXPECT_EQ(tail_percentile(values).value, 190.0);  // p95 of 1..200
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

std::vector<std::uint32_t> draws(const ZipfSampler& zipf, std::uint64_t seed, int n) {
  splpg::util::Rng rng(seed);
  std::vector<std::uint32_t> out;
  for (int i = 0; i < n; ++i) out.push_back(zipf(rng));
  return out;
}

std::vector<std::uint32_t> reversed_ids(std::uint32_t n) {
  std::vector<std::uint32_t> items(n);
  for (std::uint32_t r = 0; r < n; ++r) items[r] = n - 1 - r;
  return items;
}

TEST(ZipfSampler, DeterministicInItsSeed) {
  const ZipfSampler zipf(reversed_ids(5000), 1.0);
  EXPECT_EQ(draws(zipf, 3, 1000), draws(zipf, 3, 1000));
  EXPECT_EQ(draws(zipf, 3, 1000), draws(ZipfSampler(reversed_ids(5000), 1.0), 3, 1000));
  EXPECT_NE(draws(zipf, 3, 1000), draws(zipf, 4, 1000));
}

TEST(ZipfSampler, RanksFollowTheGivenOrder) {
  const std::uint32_t n = 1000;
  const ZipfSampler zipf(reversed_ids(n), 1.0);
  double harmonic = 0.0;
  for (std::uint32_t r = 1; r <= n; ++r) harmonic += 1.0 / r;
  const auto sample = draws(zipf, 9, 200'000);
  const auto share = [&](std::uint32_t item) {
    return static_cast<double>(std::count(sample.begin(), sample.end(), item)) /
           static_cast<double>(sample.size());
  };
  EXPECT_NEAR(share(n - 1), 1.0 / harmonic, 0.005);        // rank 0
  EXPECT_NEAR(share(n - 2), 1.0 / (2 * harmonic), 0.005);  // rank 1
  EXPECT_LT(share(0), 0.001);                              // the coldest item
}

/// A one-thread FIFO server that answers immediately, except that it stalls
/// for `stall` before answering request `stalled`.
class StallingServer {
 public:
  StallingServer(std::size_t stalled, std::chrono::milliseconds stall)
      : stalled_(stalled), stall_(stall), worker_([this] { loop(); }) {}
  ~StallingServer() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_one();
    worker_.join();
  }
  std::future<int> submit(std::size_t i) {
    std::promise<int> promise;
    auto future = promise.get_future();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back(i, std::move(promise));
    }
    ready_.notify_one();
    return future;
  }

 private:
  void loop() {
    while (true) {
      std::pair<std::size_t, std::promise<int>> item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ready_.wait(lock, [&] { return closed_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      if (item.first == stalled_) std::this_thread::sleep_for(stall_);
      item.second.set_value(static_cast<int>(item.first));
    }
  }

  std::size_t stalled_;
  std::chrono::milliseconds stall_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::pair<std::size_t, std::promise<int>>> queue_;  // guarded by mutex_
  bool closed_ = false;                                           // guarded by mutex_
  std::thread worker_;
};

TEST(OpenLoop, StalledServerShowsAsLatencyOnLaterRequests) {
  // 200 requests/s: one due every 5 ms. A 200 ms stall on request 10 holds
  // up everything due in the next 200 ms, though each of those is answered
  // instantly once the server gets to it.
  StallingServer server(10, std::chrono::milliseconds(200));
  const auto samples = run_open_loop(
      60, 200.0, [&](std::size_t i) { return server.submit(i); },
      [](std::size_t i, int reply) { return reply == static_cast<int>(i); });
  ASSERT_EQ(samples.size(), 60U);
  for (const auto& sample : samples) EXPECT_TRUE(sample.ok);
  EXPECT_LT(samples[5].latency_s(), 0.1);
  EXPECT_GE(samples[10].latency_s(), 0.2);
  // Request 20 was due 50 ms after request 10 and waited out the rest.
  EXPECT_GE(samples[20].latency_s(), 0.14);
  EXPECT_GE(samples[30].latency_s(), 0.09);
  EXPECT_LT(samples[59].latency_s(), 0.1);  // due after the stall ended
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_NEAR(samples[i].due_s, static_cast<double>(i) / 200.0, 1e-12);
    EXPECT_GE(samples[i].sent_s, samples[i].due_s);
  }
}

TEST(OpenLoop, FailedRepliesAreCounted) {
  StallingServer server(1000, std::chrono::milliseconds(0));
  const auto samples = run_open_loop(
      20, 1000.0, [&](std::size_t i) { return server.submit(i); },
      [](std::size_t i, int) { return i % 4 != 0; });
  std::size_t failed = 0;
  for (const auto& sample : samples) failed += sample.ok ? 0 : 1;
  EXPECT_EQ(failed, 5U);
}

SpanRecord span(std::uint64_t id, std::uint64_t parent, const char* name, double start,
                double end, double folded = 0.0) {
  SpanRecord record;
  record.id = id;
  record.parent = parent;
  record.name = name;
  record.start_us = start;
  record.end_us = end;
  record.folded_us = folded;
  return record;
}

TEST(SelfTime, SubtractsChildrenOnceAndFoldedTime) {
  const std::vector<SpanRecord> spans = {
      span(1, 0, "root", 0, 100, 5),
      span(2, 1, "a", 10, 30),
      span(3, 1, "b", 20, 50),    // overlaps a: 10..50 covered once
      span(4, 3, "c", 25, 35),    // grandchild: counted against b only
      span(5, 1, "d", 90, 120),   // sticks out of root: only 90..100 counts
  };
  const auto self = self_times_us(spans);
  EXPECT_DOUBLE_EQ(self[0], 100 - 40 - 10 - 5);
  EXPECT_DOUBLE_EQ(self[1], 20);
  EXPECT_DOUBLE_EQ(self[2], 30 - 10);
  EXPECT_DOUBLE_EQ(self[3], 10);
  EXPECT_DOUBLE_EQ(self[4], 30);
  EXPECT_DOUBLE_EQ(self_s(spans, "root"), 45e-6);
  EXPECT_DOUBLE_EQ(busy_s(spans, "b"), 30e-6);
}

TEST(SelfTime, NestedSpansRecordParentsAndFolds) {
  Tracer tracer;
  {
    Span outer(tracer, "outer", 0);
    {
      Span inner(tracer, "inner", 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Span::fold(500.0);
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2U);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[0].folded_us, 500.0);
  const auto self = self_times_us(spans);
  EXPECT_NEAR(self[0], spans[0].duration_us() - spans[1].duration_us() - 500.0, 1e-6);

  std::ostringstream json;
  write_chrome_trace(json, spans);
  EXPECT_NE(json.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.str().find("\"name\":\"inner\""), std::string::npos);
}

}  // namespace
}  // namespace perfbench
