// What every workload takes and returns.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement window of the untraced run
  bool trace = false;     ///< run the traced replay instead of the timed run
  std::string trace_out;  ///< Chrome trace path for the traced run ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The result line's metrics: end-to-end (timed run) or per-layer (traced).
  std::vector<Metric> metrics;
  /// Supporting figures for the report line (sample counts, percentiles,
  /// the per-family metric each end-to-end role stands for).
  std::vector<Metric> details;
  /// One line per failed check, printed to stderr.
  std::vector<std::string> errors;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

/// splpg_p4 (centralized == false) and centralized.
RunResult run_training(const Options& options, bool centralized);
/// serve_zipf.
RunResult run_serving(const Options& options);

/// Every per-layer metric of BENCHMARK.json with its unit, all 0. Each
/// workload's traced run fills the layers it exercises; the rest stay 0.
std::vector<Metric> per_layer_metrics();

/// Sets metric `name`, which must be in `metrics`.
void set_metric(std::vector<Metric>& metrics, const std::string& name, double value);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Pins the calling thread to the CPU at `index`, counted round-robin over
/// the CPUs it may use, and gives it back its CPU set when destroyed.
class CpuPin {
 public:
  explicit CpuPin(std::size_t index);
  ~CpuPin();
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// Wall time of `make()` with the calling thread pinned to CPU `index`; what
/// make() returns is dropped after the clock stops. Set-up is single-threaded
/// and the main thread stays on one CPU for a whole run, while each CPU's
/// speed follows its own share of the host's load. Cycling `index` makes each
/// run's set-up samples cover every CPU. The calling thread is kept (rather
/// than a fresh one) so set-up memory comes from the same allocator arena as
/// before and peak RSS does not depend on how arenas are reused.
template <class Make>
double seconds_on_cpu(std::size_t index, Make make) {
  const CpuPin pin(index);
  const auto start = std::chrono::steady_clock::now();
  const auto made = make();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace perfbench
