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
// Each run freezes its own ServingModel and replays its traces twice. The
// first replay starts with an empty first-layer table; its p99 is recorded
// as cold_p99_ms. Then one compute_row per node fills the table, untimed,
// and a fresh server (empty LRU) replays the traces again: p50, p99 and QPS
// are this warm replay's, so they measure the cache rather than table fill.
//
// Results land in --json (BENCH_serving.json), with the host's
// hardware_concurrency and the active SPLPG_VEC backend. The exit code
// enforces the cache regression gate: at the LARGEST client count,
// cache-enabled p99 must not exceed 2x cache-disabled p99 — the cache has
// to pay for itself under the heaviest contention or CI fails.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

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

struct RunResult {
  std::size_t clients = 0;
  bool cache = false;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double cold_p99_ms = 0.0;  // the first replay, from an empty first-layer table
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

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;

  util::Flags flags(
      "Serving-layer benchmark: p50/p99 request latency and QPS of the "
      "batched link-prediction server over a pubmed-like graph at client "
      "counts 1/4/16, cache disabled vs enabled. Emits BENCH_serving.json; "
      "exits nonzero when cache-enabled p99 exceeds 2x cache-disabled p99 "
      "at the largest client count.");
  flags.define("scale", 0.6, "dataset scale (fraction of paper-size pubmed)");
  flags.define("hidden", static_cast<std::int64_t>(64), "embedding width");
  flags.define("layers", static_cast<std::int64_t>(3), "GNN layers");
  flags.define("requests", static_cast<std::int64_t>(64), "requests per client");
  flags.define("pairs", static_cast<std::int64_t>(8), "node pairs per request");
  flags.define("batch", static_cast<std::int64_t>(64), "server scoring batch size");
  flags.define("seed", static_cast<std::int64_t>(7), "trace + model seed");
  flags.define("json", "BENCH_serving.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;
  // A count outside its field's range would wrap when narrowed (a negative
  // one to a huge size, 2^32 to 0), so each is checked before use.
  constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  const std::tuple<const char*, std::int64_t, std::int64_t> counts[] = {
      {"hidden", 1, kAny}, {"layers", 1, kU32}, {"requests", 0, kAny},
      {"pairs", 0, kAny},  {"batch", 1, kAny}};
  for (const auto& [name, min, max] : counts) {
    if (!flags.int_in_range(name, min, max)) return 1;
  }

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
  const bool cache_modes[] = {false, true};
  std::vector<RunResult> results;
  for (const bool cache : cache_modes) {
    for (const std::size_t clients : client_counts) {
      serving::ServingConfig server_config;
      server_config.batch_size = batch_size;
      server_config.cache_capacity =
          cache ? std::numeric_limits<std::size_t>::max() : 0;
      const nn::ServingModel serving(model, split.train_graph, dataset.features);

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

      RunResult run;
      run.clients = clients;
      run.cache = cache;
      {
        serving::ServingServer cold_server(serving, server_config);
        run.cold_p99_ms = percentile(replay(cold_server, traces).latencies_ms, 0.99);
      }
      std::vector<std::byte> row(serving.row_bytes());
      for (graph::NodeId v = 0; v < num_nodes; ++v) serving.compute_row(v, row);

      serving::ServingServer server(serving, server_config);
      const Replay warm = replay(server, traces);
      run.p50_ms = percentile(warm.latencies_ms, 0.50);
      run.p99_ms = percentile(warm.latencies_ms, 0.99);
      run.qps = warm.wall_seconds > 0.0
                    ? static_cast<double>(warm.latencies_ms.size()) / warm.wall_seconds
                    : 0.0;
      const auto cache_stats = server.cache_stats();
      run.cache_hits = cache_stats.hits;
      run.cache_misses = cache_stats.misses;
      run.batches = server.stats().batches;
      results.push_back(run);
      std::printf("  cache=%-8s clients=%2zu  p50 %8.3f ms  p99 %8.3f ms  "
                  "(cold %8.3f ms)  %9.1f req/s  (%llu batches, %llu hits / %llu misses)\n",
                  cache ? "enabled" : "disabled", clients, run.p50_ms, run.p99_ms,
                  run.cold_p99_ms, run.qps, static_cast<unsigned long long>(run.batches),
                  static_cast<unsigned long long>(run.cache_hits),
                  static_cast<unsigned long long>(run.cache_misses));
    }
  }

  const std::string json_path = flags.get_string("json");
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"serving\",\n";
    out << "  \"hardware_concurrency\": " << hardware << ",\n";
    out << "  \"vec_backend\": \"" << backend << "\",\n";
    out << "  \"dataset\": \"pubmed\",\n";
    out << "  \"scale\": " << scale << ",\n";
    out << "  \"nodes\": " << num_nodes << ",\n";
    out << "  \"layers\": " << layers << ",\n";
    out << "  \"hidden_dim\": " << hidden << ",\n";
    out << "  \"batch_size\": " << batch_size << ",\n";
    out << "  \"requests_per_client\": " << requests_per_client << ",\n";
    out << "  \"pairs_per_request\": " << pairs_per_request << ",\n";
    out << "  \"runs\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& run = results[i];
      out << "    {\"clients\": " << run.clients
          << ", \"cache\": " << (run.cache ? "true" : "false")
          << ", \"p50_ms\": " << run.p50_ms << ", \"p99_ms\": " << run.p99_ms
          << ", \"cold_p99_ms\": " << run.cold_p99_ms
          << ", \"qps\": " << run.qps << ", \"cache_hits\": " << run.cache_hits
          << ", \"cache_misses\": " << run.cache_misses
          << ", \"batches\": " << run.batches << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Regression gate: at the largest client count, the cache must not cost
  // more than 2x the uncached p99 (in practice it should be far below 1x).
  const std::size_t largest = client_counts[2];
  double p99_disabled = 0.0;
  double p99_enabled = 0.0;
  for (const auto& run : results) {
    if (run.clients != largest) continue;
    (run.cache ? p99_enabled : p99_disabled) = run.p99_ms;
  }
  if (p99_disabled > 0.0 && p99_enabled > 2.0 * p99_disabled) {
    std::fprintf(stderr,
                 "FAIL: cache-enabled p99 %.3f ms exceeds 2x cache-disabled "
                 "p99 %.3f ms at %zu clients\n",
                 p99_enabled, p99_disabled, largest);
    return 1;
  }
  std::printf("cache gate OK at %zu clients: p99 enabled %.3f ms vs disabled "
              "%.3f ms\n",
              largest, p99_enabled, p99_disabled);
  return 0;
}
