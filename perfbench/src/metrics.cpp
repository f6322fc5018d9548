#include <sys/resource.h>

#include <stdexcept>

#include "workload.hpp"

namespace perfbench {

std::vector<Metric> per_layer_metrics() {
  return {
      {"partition.busy_s", 0.0, "s"},
      {"sparsify.busy_s", 0.0, "s"},
      {"sparsify.kept_edges", 0.0, "count"},
      {"sampling.neg_busy_s", 0.0, "s"},
      {"sampling.khop_self_s", 0.0, "s"},
      {"sampling.cg_edges", 0.0, "count"},
      {"dist.fetch_adj_busy_s", 0.0, "s"},
      {"dist.fetch_feat_busy_s", 0.0, "s"},
      {"dist.graph_bytes", 0.0, "bytes"},
      {"dist.fetch_dedup_ratio", 0.0, "ratio"},
      {"dist.sync_wait_s", 0.0, "s"},
      {"dist.sync_reduce_s", 0.0, "s"},
      {"dist.sync_bytes", 0.0, "bytes"},
      {"dist.sync_calls", 0.0, "count"},
      {"dist.worker_imbalance", 0.0, "ratio"},
      {"nn.forward_busy_s", 0.0, "s"},
      {"nn.backward_busy_s", 0.0, "s"},
      {"nn.optim_busy_s", 0.0, "s"},
      {"nn.checkpoint_busy_s", 0.0, "s"},
      {"nn.checkpoint_bytes", 0.0, "bytes"},
      {"core.eval_busy_s", 0.0, "s"},
      {"core.eval_pairs", 0.0, "count"},
      {"serving.cache_hit_ratio", 0.0, "ratio"},
      {"serving.cache_evictions", 0.0, "count"},
      {"serving.cache_lookup_us", 0.0, "us"},
      {"serving.compute_row_us", 0.0, "us"},
      {"serving.score_rows_us", 0.0, "us"},
      {"serving.batch_fill", 0.0, "ratio"},
      {"serving.loadgen_late_ms", 0.0, "ms"},
      {"trace.overhead_s", 0.0, "s"},
  };
}

void set_metric(std::vector<Metric>& metrics, const std::string& name, double value) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  throw std::logic_error("unknown metric " + name);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

CpuPin::CpuPin(std::size_t index) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

CpuPin::~CpuPin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace perfbench
