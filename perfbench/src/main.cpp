// perfbench: the repository's benchmark. One run of one workload:
//
//   perfbench --workload <splpg_p4|centralized|serve_zipf> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// Prints a stamped report line, then, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics of the traced replay with --trace 1.
// Exits non-zero, printing no result, when the run itself cannot complete.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "tensor/vec.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  if (!std::isfinite(value)) throw std::runtime_error("metric value is not finite");
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <splpg_p4|centralized|serve_zipf> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--git-sha <sha>] [--source-digest <hex>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  if (argc % 2 != 1) return usage("every flag takes a value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--source-digest") {
      source_digest = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  try {
    perfbench::RunResult result;
    if (options.workload == "splpg_p4" || options.workload == "centralized") {
      result = perfbench::run_training(options, options.workload == "centralized");
    } else if (options.workload == "serve_zipf") {
      result = perfbench::run_serving(options);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
    }

    const std::string stamp =
        "\"git_sha\": " + quoted(git_sha) + ", \"source_digest\": " + quoted(source_digest) +
        ", \"nproc\": " + std::to_string(cpus_available()) +
        ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"vec_backend\": " +
        quoted(splpg::tensor::vec_backend_name(splpg::tensor::vec_active_backend())) +
        ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
        ", \"workload\": " + quoted(options.workload) +
        ", \"seed\": " + std::to_string(options.seed) + ", \"seconds\": " +
        number(options.seconds) + ", \"trace\": " + (options.trace ? "1" : "0");
    std::printf("{\"report\": {%s, \"details\": %s}}\n", stamp.c_str(),
                metrics_object(result.details).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                result.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics_object(result.metrics).c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
