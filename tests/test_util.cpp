// Unit tests for the util module: RNG streams, alias tables, barrier,
// thread pool, flags, serialization.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/barrier.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace splpg::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitStreamsAreIndependentOfOrder) {
  const Rng parent(7);
  Rng x1 = parent.split("x");
  Rng y1 = parent.split("y");
  // Splitting again (any order) yields the same streams.
  Rng y2 = parent.split("y");
  Rng x2 = parent.split("x");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(x1.next(), x2.next());
    EXPECT_EQ(y1.next(), y2.next());
  }
}

TEST(Rng, SplitByIndexDiffers) {
  const Rng parent(7);
  Rng a = parent.split("worker", 0);
  Rng b = parent.split("worker", 1);
  EXPECT_NE(a.next(), b.next());
}

TEST(Rng, UniformU64RespectsBound) {
  Rng rng(3);
  for (const std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.uniform_u64(bound), bound);
  }
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(4);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.uniform_u64(kBuckets)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kDraws, 0.1, 0.01);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(7);
  constexpr int kDraws = 50000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int heads = 0;
  for (int i = 0; i < 20000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(std::span<int>(items));
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sorted[i], i);
}

class SampleWithoutReplacementTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SampleWithoutReplacementTest, DistinctAndInRange) {
  const auto [n, k] = GetParam();
  Rng rng(10);
  const auto sample = rng.sample_without_replacement(n, k);
  ASSERT_EQ(sample.size(), static_cast<std::size_t>(k));
  std::vector<std::uint32_t> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (const auto x : sample) EXPECT_LT(x, static_cast<std::uint32_t>(n));
}

INSTANTIATE_TEST_SUITE_P(Regimes, SampleWithoutReplacementTest,
                         ::testing::Values(std::pair{10, 0}, std::pair{10, 10},
                                           std::pair{10, 9}, std::pair{1000, 3},
                                           std::pair{1000, 500}, std::pair{5, 2},
                                           std::pair{100000, 10}));

TEST(AliasTable, MatchesTargetDistribution) {
  const std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  const AliasTable table{std::span<const double>(weights)};
  Rng rng(11);
  std::vector<int> counts(4, 0);
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[table.sample(rng)];
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kDraws, weights[i] / 10.0, 0.01);
  }
}

TEST(AliasTable, NormalizedProbabilities) {
  const std::vector<double> weights{2.0, 6.0};
  const AliasTable table{std::span<const double>(weights)};
  EXPECT_NEAR(table.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(table.probability(1), 0.75, 1e-12);
}

TEST(AliasTable, AllZeroWeightsFallBackToUniform) {
  const std::vector<double> weights{0.0, 0.0, 0.0};
  const AliasTable table{std::span<const double>(weights)};
  Rng rng(12);
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 30000; ++i) ++counts[table.sample(rng)];
  for (const int c : counts) EXPECT_NEAR(c / 30000.0, 1.0 / 3.0, 0.02);
}

TEST(AliasTable, SingleEntryAlwaysReturnsZero) {
  const std::vector<double> weights{5.0};
  const AliasTable table{std::span<const double>(weights)};
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0U);
}

TEST(AliasTable, ZeroWeightEntryNeverSampled) {
  const std::vector<double> weights{0.0, 1.0, 1.0};
  const AliasTable table{std::span<const double>(weights)};
  Rng rng(14);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table.sample(rng), 0U);
}

TEST(Barrier, ReleasesAllThreads) {
  constexpr int kThreads = 8;
  Barrier barrier(kThreads);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ++before;
      barrier.arrive_and_wait();
      EXPECT_EQ(before.load(), kThreads);
      ++after;
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(after.load(), kThreads);
}

TEST(Barrier, SerialSectionRunsExactlyOncePerPhase) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 20;
  Barrier barrier(kThreads);
  std::atomic<int> serial_runs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < kPhases; ++phase) {
        barrier.arrive_and_wait([&] { ++serial_runs; });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(serial_runs.load(), kPhases);
}

TEST(Barrier, SerialSectionSeesQuiescentThreads) {
  constexpr int kThreads = 6;
  Barrier barrier(kThreads);
  std::vector<int> data(kThreads, 0);
  std::atomic<int> sum_seen{-1};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      data[t] = t + 1;
      barrier.arrive_and_wait([&] {
        int sum = 0;
        for (const int x : data) sum += x;
        sum_seen = sum;
      });
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(sum_seen.load(), kThreads * (kThreads + 1) / 2);
}

TEST(Barrier, ThrowingSerialSectionReleasesWaiters) {
  // Regression: a throwing serial section used to leave the phase open,
  // deadlocking every other thread at the barrier forever.
  constexpr int kThreads = 4;
  Barrier barrier(kThreads);
  std::atomic<int> released{0};
  std::atomic<int> threw{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        barrier.arrive_and_wait([] { throw std::runtime_error("boom"); });
      } catch (const std::runtime_error&) {
        ++threw;
      }
      ++released;
    });
  }
  for (auto& thread : threads) thread.join();  // must not hang
  EXPECT_EQ(released.load(), kThreads);
  EXPECT_EQ(threw.load(), 1);  // only the completing thread sees the exception

  // The barrier stays usable for the next phase.
  std::atomic<int> serial_runs{0};
  std::vector<std::thread> again;
  for (int t = 0; t < kThreads; ++t) {
    again.emplace_back([&] { barrier.arrive_and_wait([&] { ++serial_runs; }); });
  }
  for (auto& thread : again) thread.join();
  EXPECT_EQ(serial_runs.load(), 1);
}

TEST(Barrier, ArriveAndDropShrinksMembership) {
  Barrier barrier(3);
  std::atomic<int> phases{0};
  std::thread dropper([&] { barrier.arrive_and_drop(); });
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      barrier.arrive_and_wait([&] { ++phases; });
      barrier.arrive_and_wait([&] { ++phases; });  // later phases need only 2
    });
  }
  dropper.join();
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(phases.load(), 2);
  EXPECT_EQ(barrier.parties(), 2U);
}

TEST(Barrier, ArriveAndDropReleasesBlockedWaiters) {
  // The drop can land while the survivors are already blocked in the phase;
  // it must wake one of them to complete it.
  Barrier barrier(3);
  std::atomic<bool> serial_ran{false};
  std::atomic<int> arrived{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 2; ++t) {
    waiters.emplace_back([&] {
      ++arrived;
      barrier.arrive_and_wait([&] { serial_ran = true; });
    });
  }
  while (arrived.load() < 2) std::this_thread::yield();
  barrier.arrive_and_drop();
  for (auto& thread : waiters) thread.join();
  EXPECT_TRUE(serial_ran.load());
}

TEST(Barrier, AddPartyFromSerialSectionJoinsNextPhase) {
  // The recovery path: a dropped worker is re-added from inside a serial
  // section (rejoin), and the next phase requires it again.
  Barrier barrier(2);
  barrier.arrive_and_drop();  // membership: 1
  std::atomic<int> phases{0};
  std::thread solo([&] {
    barrier.arrive_and_wait([&] {
      ++phases;
      barrier.add_party();  // membership back to 2 for the next phase
    });
  });
  solo.join();
  EXPECT_EQ(barrier.parties(), 2U);
  std::vector<std::thread> pair;
  for (int t = 0; t < 2; ++t) {
    pair.emplace_back([&] { barrier.arrive_and_wait([&] { ++phases; }); });
  }
  for (auto& thread : pair) thread.join();
  EXPECT_EQ(phases.load(), 2);
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

// ---- stress / abuse (the semantics documented in thread_pool.hpp) ----

TEST(ThreadPoolStress, ThrowingTasksLeavePoolUsable) {
  ThreadPool pool(2);
  // Every task throws; every future must rethrow on get()...
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.submit([] { throw std::runtime_error("task boom"); }));
  }
  for (auto& f : futures) EXPECT_THROW(f.get(), std::runtime_error);
  // ...and the pool threads must survive to run ordinary work afterwards.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
  EXPECT_NO_THROW(pool.submit([] {}).get());
}

TEST(ThreadPoolStress, ParallelForRethrowsAfterAllChunksFinish) {
  ThreadPool pool(4);
  // One chunk throws: that chunk stops at the exception (its remaining
  // indices are abandoned), every OTHER chunk still runs to completion
  // before the first exception is rethrown, and no index runs twice.
  std::vector<std::atomic<int>> hits(512);
  EXPECT_THROW(pool.parallel_for(0, 512,
                                 [&](std::size_t i) {
                                   ++hits[i];
                                   if (i == 100) throw std::runtime_error("chunk boom");
                                 }),
               std::runtime_error);
  std::size_t visited = 0;
  for (const auto& h : hits) {
    EXPECT_LE(h.load(), 1);
    visited += static_cast<std::size_t>(h.load());
  }
  EXPECT_EQ(hits[100].load(), 1);
  // At most one chunk (ceil(512/4) = 128 indices) can have been cut short.
  EXPECT_GE(visited, 512U - 128U);
}

TEST(ThreadPoolStress, NestedParallelForRunsInlineOnWorkerThread) {
  ThreadPool pool(2);
  std::atomic<int> inner{0};
  std::atomic<int> inline_calls{0};
  // parallel_for from a pool worker must not deadlock the (tiny) pool: the
  // nested range runs inline on the calling worker thread.
  pool.parallel_for(0, 4, [&](std::size_t) {
    EXPECT_TRUE(pool.on_worker_thread());
    pool.parallel_for(0, 50, [&](std::size_t) {
      if (pool.on_worker_thread()) ++inline_calls;
      ++inner;
    });
  });
  EXPECT_EQ(inner.load(), 4 * 50);
  EXPECT_EQ(inline_calls.load(), 4 * 50);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPoolStress, SubmitFromWorkerThreadDoesNotBlock) {
  ThreadPool pool(1);  // single worker: a blocking re-submit would deadlock
  std::atomic<int> counter{0};
  std::future<void> nested;
  pool.submit([&] {
      // Enqueue-only from inside the sole worker; completes after we return.
      nested = pool.submit([&] { ++counter; });
      ++counter;
    }).get();
  nested.get();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPool, ForEachIndexRunsInlineUnlessThePoolIsWider) {
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool single(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &single}) {
    std::vector<std::size_t> order;
    for_each_index(pool, 5, [&](std::size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
  ThreadPool wide(4);
  std::vector<int> hits(100, 0);
  std::atomic<int> off_caller{0};
  for_each_index(&wide, hits.size(), [&](std::size_t i) {
    ++hits[i];
    if (std::this_thread::get_id() != caller) ++off_caller;
  });
  EXPECT_EQ(hits, std::vector<int>(100, 1));
  EXPECT_EQ(off_caller.load(), 100);
}

TEST(ThreadPoolStress, ManySmallTasksUnderContention) {
  ThreadPool pool(7);
  std::atomic<long> total{0};
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(0, 1000, [&](std::size_t i) { total += static_cast<long>(i); });
  }
  EXPECT_EQ(total.load(), 20L * (999L * 1000L / 2));
}

/// The widest int range, for the tests that are not about ranges.
constexpr std::int64_t kAnyMin = std::numeric_limits<std::int64_t>::min();

TEST(Flags, ParsesAllForms) {
  Flags flags("test");
  flags.define("name", "default", "a string");
  flags.define("count", 3, kAnyMin, Flags::kAny, "an int");
  flags.define("rate", 0.5, "a double");
  flags.define("verbose", false, "a bool");
  const char* argv[] = {"prog", "--name=hello", "--count", "42", "--verbose", "--rate=0.25"};
  ASSERT_TRUE(flags.parse(6, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_string("name"), "hello");
  EXPECT_EQ(flags.get_int("count"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 0.25);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, DashedNamesParseInBothForms) {
  // The worker-parallelism knobs use dashed names (--worker-threads,
  // quickstart + bench); make sure dashes survive both spellings.
  Flags flags("test");
  flags.define("worker-threads", 1, kAnyMin, Flags::kAny, "pool width");
  flags.define("local-steps", 1, kAnyMin, Flags::kAny, "sync period");
  {
    const char* argv[] = {"prog", "--worker-threads=4", "--local-steps", "2"};
    ASSERT_TRUE(flags.parse(4, const_cast<char**>(argv)));
    EXPECT_EQ(flags.get_int("worker-threads"), 4);
    EXPECT_EQ(flags.get_int("local-steps"), 2);
  }
  {
    Flags spaced("test");
    spaced.define("worker-threads", 1, kAnyMin, Flags::kAny, "pool width");
    const char* argv[] = {"prog", "--worker-threads", "7"};
    ASSERT_TRUE(spaced.parse(3, const_cast<char**>(argv)));
    EXPECT_EQ(spaced.get_int("worker-threads"), 7);
  }
}

TEST(Flags, DefaultsWhenUnset) {
  Flags flags("test");
  flags.define("count", 3, kAnyMin, Flags::kAny, "an int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("count"), 3);
}

TEST(Flags, UnknownFlagFails) {
  Flags flags("test");
  flags.define("count", 3, kAnyMin, Flags::kAny, "an int");
  const char* argv[] = {"prog", "--unknown=1"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
}

TEST(Flags, IntListParsing) {
  Flags flags("test");
  flags.define("parts", "4,8,16", "partition counts");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  const auto parts = flags.get_int_list("parts");
  ASSERT_EQ(parts.size(), 3U);
  EXPECT_EQ(parts[0], 4);
  EXPECT_EQ(parts[1], 8);
  EXPECT_EQ(parts[2], 16);
}

TEST(Flags, MalformedNumbersFailNamingTheFlag) {
  // Each value fails to parse whole as its flag's type; parse() must refuse
  // it up front (callers exit 1) instead of storing text that a later
  // get_int/get_double would throw on or read a prefix of.
  const std::pair<const char*, const char*> cases[] = {
      {"--epochs=abc", "--epochs"}, {"--epochs=12abc", "--epochs"}, {"--epochs=1.5", "--epochs"},
      {"--epochs=", "--epochs"},    {"--rate=0.5x", "--rate"},      {"--rate=abc", "--rate"},
      {"--rate=", "--rate"}};
  for (const auto& [arg, flag] : cases) {
    Flags flags("test");
    flags.define("epochs", 6, kAnyMin, Flags::kAny, "an int");
    flags.define("rate", 0.5, "a double");
    const char* argv[] = {"prog", arg};
    testing::internal::CaptureStderr();
    const bool parsed = flags.parse(2, const_cast<char**>(argv));
    const std::string error = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(parsed) << arg;
    EXPECT_NE(error.find(flag), std::string::npos) << arg << ": " << error;
  }
  // The space-separated form is checked too.
  Flags flags("test");
  flags.define("epochs", 6, kAnyMin, Flags::kAny, "an int");
  const char* argv[] = {"prog", "--epochs", "abc"};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--epochs"), std::string::npos);
}

TEST(Flags, WellFormedNumbersStillParse) {
  Flags flags("test");
  flags.define("count", 3, kAnyMin, Flags::kAny, "an int");
  flags.define("rate", 0.5, "a double");
  const char* argv[] = {"prog", "--count=-7", "--rate=1e-3"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("count"), -7);
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 1e-3);
}

TEST(Flags, IntListRejectsMalformedEntriesNamingTheFlag) {
  for (const char* text : {"4,x,16", "4,8x"}) {
    Flags flags("test");
    flags.define("parts", text, "partition counts");
    const char* argv[] = {"prog"};
    ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
    try {
      (void)flags.get_int_list("parts");
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("--parts"), std::string::npos) << error.what();
    }
  }
}

TEST(Flags, IntFlagsHoldTheRangeTheirDefinitionDeclares) {
  struct Case {
    const char* arg;
    bool accepted;
    const char* error;  // the message printed when rejected
  };
  const Case cases[] = {
      {"--epochs=0", false, "error: flag --epochs must be in [1, 4294967295], got 0"},
      {"--offset=6", false, "error: flag --offset must be in [-5, 5], got 6"},
      {"--epochs=4294967296", false,
       "error: flag --epochs must be in [1, 4294967295], got 4294967296"},
      {"--threads=-1", false,
       "error: flag --threads must be in [0, 9223372036854775807], got -1"},
      {"--offset=-6", false, "error: flag --offset must be in [-5, 5], got -6"},
      {"--epochs=1", true, ""},
      {"--epochs=4294967295", true, ""},
      {"--offset=-5", true, ""},
      {"--threads=0", true, ""},
  };
  for (const Case& c : cases) {
    Flags flags("test");
    flags.define("epochs", 6, 1, Flags::kU32, "a u32 count");
    flags.define("threads", 1, 0, Flags::kAny, "a size_t count");
    flags.define("offset", 0, -5, 5, "a signed value");
    const char* argv[] = {"prog", c.arg};
    testing::internal::CaptureStderr();
    const bool parsed = flags.parse(2, const_cast<char**>(argv));
    const std::string error = testing::internal::GetCapturedStderr();
    EXPECT_EQ(parsed, c.accepted) << c.arg;
    EXPECT_EQ(error, c.accepted ? "" : std::string(c.error) + "\n") << c.arg;
  }
  // The space-separated form is checked too.
  Flags flags("test");
  flags.define("epochs", 6, 1, Flags::kU32, "a u32 count");
  const char* argv[] = {"prog", "--epochs", "0"};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_NE(testing::internal::GetCapturedStderr().find("--epochs must be in"), std::string::npos);
}

TEST(Flags, DefaultOutsideItsRangeIsRejectedAtDefinition) {
  Flags flags("test");
  EXPECT_THROW(flags.define("epochs", 0, 1, Flags::kU32, "a u32 count"), std::logic_error);
  EXPECT_THROW(flags.define("offset", 6, -5, 5, "a signed value"), std::logic_error);
  EXPECT_NO_THROW(flags.define("edge", 5, -5, 5, "a signed value"));
}

TEST(Flags, HelpShowsEachIntRange) {
  Flags flags("test");
  flags.define("epochs", 6, 1, Flags::kU32, "a u32 count");
  flags.define("rate", 0.5, "a double");
  const char* argv[] = {"prog", "--help"};
  testing::internal::CaptureStderr();
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(argv)));
  const std::string usage = testing::internal::GetCapturedStderr();
  EXPECT_NE(usage.find("a u32 count (int in [1, 4294967295], default: 6)"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("a double (double, default: 0.5)"), std::string::npos) << usage;
}

TEST(Flags, TypeMismatchThrows) {
  Flags flags("test");
  flags.define("count", 3, kAnyMin, Flags::kAny, "an int");
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, const_cast<char**>(argv)));
  EXPECT_THROW((void)flags.get_string("count"), std::logic_error);
  EXPECT_THROW((void)flags.get_int("missing"), std::logic_error);
}

TEST(Serialize, PodRoundTrip) {
  std::stringstream stream;
  write_pod<std::uint32_t>(stream, 0xdeadbeef);
  write_pod<double>(stream, 3.25);
  const std::string bytes = stream.str();
  ASSERT_EQ(bytes.size(), sizeof(std::uint32_t) + sizeof(double));
  std::uint32_t word = 0;
  double number = 0.0;
  std::memcpy(&word, bytes.data(), sizeof(word));
  std::memcpy(&number, bytes.data() + sizeof(word), sizeof(number));
  EXPECT_EQ(word, 0xdeadbeefU);
  EXPECT_DOUBLE_EQ(number, 3.25);
}

}  // namespace
}  // namespace splpg::util
