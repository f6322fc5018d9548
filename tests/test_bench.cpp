// The bench harness (bench/common.cpp, library splpg_bench_common): the
// BENCH report writer and best-of-N timing.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/error.hpp"
#include "tensor/vec.hpp"

namespace splpg::bench {
namespace {

std::string printed(const Json& json) {
  std::ostringstream out;
  json.print(out);
  return out.str();
}

TEST(BenchReport, StampFieldsComeFirstAndInOrder) {
  Report report("demo");
  report.set("rows", std::vector<Json>{Json().set("x", 1)});
  const std::string expected =
      "{\n"
      "  \"bench\": \"demo\",\n"
      "  \"hardware_concurrency\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\n"
      "  \"vec_backend\": \"" +
      tensor::vec_backend_name(tensor::vec_active_backend()) +
      "\",\n"
      "  \"build_type\": ";
  const std::string text = printed(report);
  EXPECT_EQ(text.substr(0, expected.size()), expected) << text;
  EXPECT_LT(text.find("\"build_type\""), text.find("\"rows\"")) << text;
}

TEST(BenchReport, LeafValuesShareALineContainersTakeOneEntryPerLine) {
  Json json;
  json.set("name", "x").set("rows", std::vector<Json>{Json().set("a", 1).set("b", true),
                                                      Json().set("a", 2).set("b", false)});
  json.set("empty", std::vector<Json>{}).set("nested", Json().set("k", 0.5));
  EXPECT_EQ(printed(json),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"rows\": [\n"
            "    {\"a\": 1, \"b\": true},\n"
            "    {\"a\": 2, \"b\": false}\n"
            "  ],\n"
            "  \"empty\": [],\n"
            "  \"nested\": {\"k\": 0.5}\n"
            "}");
}

TEST(BenchReport, EscapesStrings) {
  EXPECT_EQ(printed(Json().set("s\"", "quote\" backslash\\ newline\n tab\t bell\x07 end")),
            "{\"s\\\"\": \"quote\\\" backslash\\\\ newline\\u000a tab\\u0009 bell\\u0007 end\"}");
}

TEST(BenchReport, NonFiniteNumbersBecomeNull) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(printed(Json()
                        .set("nan", std::nan(""))
                        .set("inf", inf)
                        .set("minus_inf", -inf)
                        .set("float_nan", std::numeric_limits<float>::quiet_NaN())),
            "{\"nan\": null, \"inf\": null, \"minus_inf\": null, \"float_nan\": null}");
}

TEST(BenchReport, IntegersAreExactAndFloatsRoundTrip) {
  EXPECT_EQ(printed(Json()
                        .set("u64_max", std::numeric_limits<std::uint64_t>::max())
                        .set("i64_min", std::numeric_limits<std::int64_t>::min())
                        .set("double", 0.1)
                        .set("float", 0.01F)
                        .set("whole", 3.0)),
            "{\"u64_max\": 18446744073709551615, \"i64_min\": -9223372036854775808, "
            "\"double\": 0.1, \"float\": 0.01, \"whole\": 3}");
}

class BenchReportFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("splpg_bench_report_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(BenchReportFileTest, WritesThePrintedReport) {
  Report report("demo");
  report.set("value", 42);
  const std::string path = (dir_ / "BENCH_demo.json").string();
  testing::internal::CaptureStdout();
  report.write(path);
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "wrote " + path + "\n");
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str(), printed(report) + "\n");
}

TEST_F(BenchReportFileTest, UnwritablePathRaisesAnErrorNamingIt) {
  Report report("demo");
  const std::string path = (dir_ / "missing_dir" / "BENCH_demo.json").string();
  try {
    report.write(path);
    ADD_FAILURE() << "wrote " << path;
  } catch (const io::IoError& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos) << error.what();
  }
  EXPECT_FALSE(std::filesystem::exists(dir_ / "missing_dir"));
}

TEST_F(BenchReportFileTest, EmptyPathWritesNothing) {
  testing::internal::CaptureStdout();
  Report("demo").write("");
  EXPECT_EQ(testing::internal::GetCapturedStdout(), "");
  EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST(BenchTiming, TimeBestRunsEveryRepeatAndKeepsTheFastest) {
  int calls = 0;
  const Timing timing = time_best(4, [&] {
    ++calls;
    // The first run sleeps, so it cannot be the fastest.
    if (calls == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  EXPECT_EQ(calls, 4);
  EXPECT_GE(timing.wall_seconds, 0.0);
  EXPECT_LT(timing.wall_seconds, 0.02);
  EXPECT_GE(timing.cpu_seconds, 0.0);
}

}  // namespace
}  // namespace splpg::bench
