// Online serving benchmark: end-to-end request latency (p50/p99) and
// throughput (QPS) of the batched link-prediction server over a pubmed-like
// graph (11,830 nodes at the default scale, as perfbench's serve_zipf) at
// client counts {1, 4, 16}, with the embedding cache disabled (capacity 0:
// every endpoint is a miss, one ServingModel::compute_row each) and enabled
// (unbounded).
//
// Each client thread replays a seeded trace of score requests through
// ServingServer::submit and times submit -> future.get per request, so the
// numbers include queueing, batch coalescing, cache/recompute, and scoring.
// One measurement freezes its own ServingModel and replays the traces twice.
// The first replay starts with an empty first-layer table; its p99 is the
// cold p99. Then one compute_row per node fills the table, untimed, and a
// fresh server (empty LRU) replays the traces again: p50, p99 and QPS are
// this warm replay's, so they measure the cache rather than table fill.
// Each cell (cache mode x client count) is measured 3 times and records the
// median p50, p99, cold p99 and QPS, p99's min and max, and every
// measurement.
//
// Results land in --json (BENCH_serving.json). The exit code enforces the
// cache regression gate: at the LARGEST client count, the median
// cache-enabled p99 must not exceed 2x the median cache-disabled p99 — the
// cache has to pay for itself under the heaviest contention or CI fails.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "nn/serving_model.hpp"
#include "sampling/edge_split.hpp"
#include "serving/server.hpp"
#include "tensor/vec.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

using splpg::sampling::NodePair;

/// Measurements per cell; a cell records their medians.
constexpr int kMeasurements = 3;

/// One measurement of a cell: a cold and a warm replay.
struct Measurement {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cold_p99_ms = 0.0;  // the cold replay, from an empty first-layer table
  double qps = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t batches = 0;
};

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(samples.size() - 1));
  return samples[rank];
}

/// Per client, per request, the request's node pairs.
using Traces = std::vector<std::vector<std::vector<NodePair>>>;

/// Every request latency (ms) of one concurrent replay, and its wall time.
struct Replay {
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
};

/// Replays each client's trace on its own thread through `server`, timing
/// submit -> future.get per request.
Replay replay(splpg::serving::ServingServer& server, const Traces& traces) {
  const std::size_t clients = traces.size();
  std::vector<std::vector<double>> latencies(clients);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      latencies[c].reserve(traces[c].size());
      for (const auto& request : traces[c]) {
        const auto start = std::chrono::steady_clock::now();
        const auto reply = server.submit(request).get();
        const auto end = std::chrono::steady_clock::now();
        (void)reply;
        latencies[c].push_back(std::chrono::duration<double, std::milli>(end - start).count());
      }
    });
  }
  for (auto& worker : workers) worker.join();
  Replay out;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  for (const auto& per_client : latencies) {
    out.latencies_ms.insert(out.latencies_ms.end(), per_client.begin(), per_client.end());
  }
  return out;
}

/// One measurement: a fresh ServingModel replays `traces` cold, the
/// first-layer table is filled, and a fresh server replays them warm.
Measurement measure(const splpg::nn::LinkPredictionModel& model,
                    const splpg::sampling::LinkSplit& split,
                    const splpg::graph::FeatureStore& features,
                    const splpg::serving::ServingConfig& config, const Traces& traces) {
  const splpg::nn::ServingModel serving(model, split.train_graph, features);
  Measurement m;
  {
    splpg::serving::ServingServer cold_server(serving, config);
    m.cold_p99_ms = percentile(replay(cold_server, traces).latencies_ms, 0.99);
  }
  std::vector<std::byte> row(serving.row_bytes());
  for (splpg::graph::NodeId v = 0; v < split.train_graph.num_nodes(); ++v) {
    serving.compute_row(v, row);
  }
  splpg::serving::ServingServer server(serving, config);
  const Replay warm = replay(server, traces);
  m.p50_ms = percentile(warm.latencies_ms, 0.50);
  m.p99_ms = percentile(warm.latencies_ms, 0.99);
  m.qps = warm.wall_seconds > 0.0
              ? static_cast<double>(warm.latencies_ms.size()) / warm.wall_seconds
              : 0.0;
  m.cache_hits = server.cache_stats().hits;
  m.cache_misses = server.cache_stats().misses;
  m.batches = server.stats().batches;
  return m;
}

/// The value `field` selects, from each of a cell's measurements.
std::vector<double> each(const std::vector<Measurement>& runs, double Measurement::*field) {
  std::vector<double> values;
  for (const Measurement& run : runs) values.push_back(run.*field);
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;
  using util::Flags;

  Flags flags(
      "Serving-layer benchmark: p50/p99 request latency and QPS of the "
      "batched link-prediction server over a pubmed-like graph at client "
      "counts 1/4/16, cache disabled vs enabled. Emits BENCH_serving.json; "
      "exits nonzero when the median cache-enabled p99 exceeds 2x the "
      "cache-disabled one at the largest client count.");
  flags.define("scale", 0.6, "dataset scale (fraction of paper-size pubmed)");
  flags.define("hidden", 64, 1, Flags::kAny, "embedding width");
  flags.define("layers", 3, 1, Flags::kU32, "GNN layers");
  flags.define("requests", 64, 0, Flags::kAny, "requests per client");
  flags.define("pairs", 8, 0, Flags::kAny, "node pairs per request");
  flags.define("batch", 64, 1, Flags::kAny, "server scoring batch size");
  flags.define("seed", 7, 0, Flags::kAny, "trace + model seed");
  flags.define("json", "BENCH_serving.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;

  const double scale = flags.get_double("scale");
  const auto hidden = static_cast<std::size_t>(flags.get_int("hidden"));
  const auto layers = static_cast<std::uint32_t>(flags.get_int("layers"));
  const auto requests_per_client = static_cast<std::size_t>(flags.get_int("requests"));
  const auto pairs_per_request = static_cast<std::size_t>(flags.get_int("pairs"));
  const auto batch_size = static_cast<std::size_t>(flags.get_int("batch"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  auto dataset = data::make_dataset("pubmed", scale, seed);
  util::Rng split_rng = util::Rng(seed).split("split");
  const auto split = sampling::split_edges(dataset.graph, {}, split_rng);

  nn::ModelConfig config;
  config.gnn = nn::GnnKind::kSage;
  config.predictor = nn::PredictorKind::kMlp;
  config.in_dim = dataset.features.dim();
  config.hidden_dim = hidden;
  config.num_layers = layers;
  config.predictor_layers = 2;
  const nn::LinkPredictionModel model(config, seed);

  const auto num_nodes = split.train_graph.num_nodes();
  const unsigned hardware = std::thread::hardware_concurrency();
  const char* backend = tensor::vec_backend_name(tensor::vec_active_backend());
  std::printf("serving bench: %u nodes, hidden %zu, %u layers, batch %zu, "
              "%zu requests/client x %zu pairs, %u CPUs, %s\n",
              num_nodes, hidden, layers, batch_size, requests_per_client,
              pairs_per_request, hardware, backend);

  const std::size_t client_counts[] = {1, 4, 16};
  const std::size_t largest = client_counts[2];
  double gate_p99_ms[2] = {0.0, 0.0};  // the median p99 at `largest`, cache off / on
  std::vector<bench::Json> cells;
  for (const bool cache : {false, true}) {
    for (const std::size_t clients : client_counts) {
      serving::ServingConfig server_config;
      server_config.batch_size = batch_size;
      server_config.cache_capacity =
          cache ? std::numeric_limits<std::size_t>::max() : 0;

      // Pre-generate every client's trace so the timed region is pure
      // serving work, not RNG.
      Traces traces(clients);
      for (std::size_t c = 0; c < clients; ++c) {
        util::Rng rng = util::Rng(seed).split("client", c);
        traces[c].resize(requests_per_client);
        for (auto& request : traces[c]) {
          request.resize(pairs_per_request);
          for (auto& pair : request) {
            pair.u = static_cast<std::uint32_t>(rng.uniform_u64(num_nodes));
            pair.v = static_cast<std::uint32_t>(rng.uniform_u64(num_nodes));
          }
        }
      }

      std::vector<Measurement> runs;
      std::vector<bench::Json> measurements;
      for (int r = 0; r < kMeasurements; ++r) {
        const Measurement& m =
            runs.emplace_back(measure(model, split, dataset.features, server_config, traces));
        measurements.push_back(bench::Json()
                                   .set("p50_ms", m.p50_ms)
                                   .set("p99_ms", m.p99_ms)
                                   .set("cold_p99_ms", m.cold_p99_ms)
                                   .set("qps", m.qps)
                                   .set("cache_hits", m.cache_hits)
                                   .set("cache_misses", m.cache_misses)
                                   .set("batches", m.batches));
      }
      const std::vector<double> p99s = each(runs, &Measurement::p99_ms);
      const double p50 = percentile(each(runs, &Measurement::p50_ms), 0.5);
      const double p99 = percentile(p99s, 0.5);
      const double p99_min = percentile(p99s, 0.0);
      const double p99_max = percentile(p99s, 1.0);
      const double cold_p99 = percentile(each(runs, &Measurement::cold_p99_ms), 0.5);
      const double qps = percentile(each(runs, &Measurement::qps), 0.5);
      if (clients == largest) gate_p99_ms[cache ? 1 : 0] = p99;
      cells.push_back(bench::Json()
                          .set("clients", clients)
                          .set("cache", cache)
                          .set("p50_ms", p50)
                          .set("p99_ms", p99)
                          .set("p99_min_ms", p99_min)
                          .set("p99_max_ms", p99_max)
                          .set("cold_p99_ms", cold_p99)
                          .set("qps", qps)
                          .set("measurements", measurements));
      std::printf("  cache=%-8s clients=%2zu  p50 %8.3f ms  p99 %8.3f ms [%.3f, %.3f]  "
                  "(cold %8.3f ms)  %9.1f req/s\n",
                  cache ? "enabled" : "disabled", clients, p50, p99, p99_min, p99_max,
                  cold_p99, qps);
    }
  }

  bench::Report report("serving");
  report.set("dataset", "pubmed")
      .set("scale", scale)
      .set("nodes", num_nodes)
      .set("layers", layers)
      .set("hidden_dim", hidden)
      .set("batch_size", batch_size)
      .set("requests_per_client", requests_per_client)
      .set("pairs_per_request", pairs_per_request)
      .set("measurements_per_cell", kMeasurements)
      .set("runs", cells);
  report.write(flags.get_string("json"));

  // Regression gate: at the largest client count, the cache must not cost
  // more than 2x the uncached p99 (in practice it should be far below 1x).
  const auto [p99_disabled, p99_enabled] = gate_p99_ms;
  if (p99_disabled > 0.0 && p99_enabled > 2.0 * p99_disabled) {
    std::fprintf(stderr,
                 "FAIL: median cache-enabled p99 %.3f ms exceeds 2x cache-disabled "
                 "p99 %.3f ms at %zu clients\n",
                 p99_enabled, p99_disabled, largest);
    return 1;
  }
  std::printf("cache gate OK at %zu clients: median p99 enabled %.3f ms vs disabled "
              "%.3f ms\n",
              largest, p99_enabled, p99_disabled);
  return 0;
}
