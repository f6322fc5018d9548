// serve_zipf: online link prediction over the pubmed-like graph at scale 0.6
// (11.8k nodes, 387-dim features) with a frozen 3-layer SAGE ServingModel.
// Requests carry 8 pairs whose endpoints are Zipf(s = 1) distributed; the
// LRU cache holds 10% of the nodes, so hits and full-neighborhood miss
// recomputes are both common, and the server coalesces pairs into batches
// of 64.
//
// The timed run drives the real ServingServer in rounds, each two timed
// set-ups, an open-loop segment at a fixed offered rate (one generator
// thread, one collector thread; latency from each request's due time) and a
// closed-loop block from 3 clients for throughput. The traced run replays the
// server's batch loop through the serving layer's public pieces with a span
// around every call.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "data/dataset.hpp"
#include "nn/serving_model.hpp"
#include "open_loop.hpp"
#include "sampling/edge_split.hpp"
#include "serving/embedding_cache.hpp"
#include "serving/server.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/bounded_queue.hpp"
#include "workload.hpp"
#include "zipf.hpp"

namespace perfbench {
namespace {

using namespace splpg;
using graph::NodeId;
using sampling::NodePair;
using Clock = std::chrono::steady_clock;
using Request = std::vector<NodePair>;

constexpr double kScale = 0.6;
constexpr std::size_t kHiddenDim = 64;
constexpr std::size_t kPairsPerRequest = 8;
constexpr std::size_t kBatchSize = 64;
constexpr double kCacheShare = 0.10;
constexpr double kZipfExponent = 1.0;
constexpr std::size_t kClients = 3;
// Offered rate of the open-loop phase, requests per second: about a quarter
// of what the scorer sustains closed loop on a 4-CPU host. At half of it, a
// host running 25% slower for a while turned bursts into backlogs and moved
// p90 latency several-fold between otherwise equal runs.
constexpr double kOpenLoopRate = 40.0;
constexpr double kOpenLoopShare = 0.6;  // of --seconds; blocks and set-ups get the rest
constexpr std::size_t kWarmupRequests = 300;
constexpr std::size_t kBlockRequests = 240;  // closed-loop requests per timed block
// Rounds of set-ups + open-loop segment + closed-loop block: one per
// kRoundSeconds of --seconds, at least kMinRounds. Many short rounds let the
// medians drop the few that a slow stretch of the host hits.
constexpr double kRoundSeconds = 3.5;
constexpr std::size_t kMinRounds = 3;
constexpr int kSetupsPerRound = 2;
constexpr std::size_t kCheckEvery = 32;  // about one request in 32 is verified
// The replay-versus-server check sends this many 8-pair pieces, merged into
// requests of 8, 56 and 104 pairs.
constexpr std::size_t kMatchPieces = 84;
// The served graph and which nodes are hot stay fixed; --seed draws the
// traffic and the model weights. Miss cost ranges over 15x from node to node
// (a node near a hub recomputes much of the graph), so a seeded graph or hot
// set moved latency and throughput from seed to seed by 20-30%.
constexpr std::uint64_t kGraphSeed = 1;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct ServeSetup {
  data::Dataset dataset;
  sampling::LinkSplit split;
  std::unique_ptr<nn::ServingModel> model;  // points into dataset and split
};

std::unique_ptr<ServeSetup> make_setup(std::uint64_t seed) {
  auto setup = std::make_unique<ServeSetup>();
  setup->dataset = data::make_dataset("pubmed", kScale, kGraphSeed);
  util::Rng rng = util::Rng(kGraphSeed).split("split");
  setup->split = sampling::split_edges(setup->dataset.graph, {}, rng);
  nn::ModelConfig config;
  config.in_dim = setup->dataset.features.dim();
  config.hidden_dim = kHiddenDim;
  const nn::LinkPredictionModel model(config, seed);
  setup->model = std::make_unique<nn::ServingModel>(model, setup->split.train_graph,
                                                    setup->dataset.features);
  return setup;
}

serving::ServingConfig server_config(const ServeSetup& setup) {
  serving::ServingConfig config;
  config.batch_size = kBatchSize;
  config.cache_capacity =
      static_cast<std::size_t>(kCacheShare * static_cast<double>(setup.model->num_nodes()));
  return config;
}

/// Popularity order of the nodes: a fixed shuffle, so hot and cold nodes
/// have the same mix of neighborhood sizes.
std::vector<std::uint32_t> popularity_order(std::uint32_t num_nodes) {
  std::vector<std::uint32_t> nodes(num_nodes);
  std::iota(nodes.begin(), nodes.end(), 0U);
  util::Rng rng = util::Rng(kGraphSeed).split("popularity");
  rng.shuffle(std::span<std::uint32_t>(nodes));
  return nodes;
}

class Traffic {
 public:
  Traffic(std::uint32_t num_nodes, std::uint64_t seed)
      : zipf_(popularity_order(num_nodes), kZipfExponent), seed_(seed) {}

  /// `count` requests of the named stream; same (seed, stream, index) gives
  /// the same requests.
  [[nodiscard]] std::vector<Request> requests(const char* stream, std::uint64_t index,
                                              std::size_t count) const {
    util::Rng rng = util::Rng(seed_).split(stream, index);
    std::vector<Request> out(count, Request(kPairsPerRequest));
    for (Request& request : out) {
      for (NodePair& pair : request) {
        pair.u = zipf_(rng);
        do {
          pair.v = zipf_(rng);
        } while (pair.v == pair.u);
      }
    }
    return out;
  }

  /// Whether request i of requests(stream, index, ...) is verified against
  /// the uncached model.
  [[nodiscard]] bool checked(const char* stream, std::uint64_t index, std::size_t i) const {
    return util::Rng(seed_).split(stream, index).split("check", i).uniform_u64(kCheckEvery) == 0;
  }

 private:
  ZipfSampler zipf_;
  std::uint64_t seed_;
};

/// Requests whose replies are re-scored by the uncached model at the end.
struct Kept {
  std::vector<Request> requests;
  std::vector<std::vector<float>> replies;
};

void keep(Kept& kept, const Request& request, std::vector<float> reply) {
  kept.requests.push_back(request);
  kept.replies.push_back(std::move(reply));
}

/// Replays a kept reply set against ServingModel::score_pairs (no cache, no
/// batching) and counts every reply that is not bitwise equal.
void verify(const nn::ServingModel& model, const Kept& kept, RunResult& result) {
  for (std::size_t i = 0; i < kept.requests.size(); ++i) {
    const std::vector<float> expected = model.score_pairs(kept.requests[i]);
    const std::vector<float>& got = kept.replies[i];
    if (got.size() != expected.size() ||
        std::memcmp(got.data(), expected.data(), got.size() * sizeof(float)) != 0) {
      result.fail("served scores differ from uncached ServingModel::score_pairs");
    }
  }
}

/// Closed loop: kClients threads, each sending its next request when the
/// previous reply arrived. Returns the wall time.
template <class Server>
double closed_loop(Server& server, const Traffic& traffic, const char* stream,
                   std::uint64_t index, const std::vector<Request>& requests, Kept& kept,
                   RunResult& result) {
  std::vector<std::vector<float>> replies(requests.size());
  std::atomic<std::uint64_t> failed{0};
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < requests.size(); i += kClients) {
        try {
          replies[i] = server.submit(requests[i]).get().scores;
        } catch (...) {
          ++failed;
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const double wall = seconds_since(start);
  result.attempted += requests.size();
  for (std::uint64_t i = 0; i < failed.load(); ++i) result.fail("closed-loop request failed");
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // An empty reply is a failed request, already counted above.
    if (!replies[i].empty() && traffic.checked(stream, index, i)) {
      keep(kept, requests[i], replies[i]);
    }
  }
  return wall;
}

/// Open loop at kOpenLoopRate over requests("open", index, ...).
template <class Server>
std::vector<OpenLoopSample> open_loop(Server& server, const Traffic& traffic, std::uint64_t index,
                                      const std::vector<Request>& requests, Kept& kept,
                                      RunResult& result) {
  std::vector<std::vector<float>> replies(requests.size());
  const auto samples = run_open_loop(
      requests.size(), kOpenLoopRate, [&](std::size_t i) { return server.submit(requests[i]); },
      [&](std::size_t i, serving::ScoredReply reply) {
        const bool ok = reply.scores.size() == requests[i].size();
        replies[i] = std::move(reply.scores);
        return ok;
      });
  result.attempted += samples.size();
  for (const auto& sample : samples) {
    if (!sample.ok) result.fail("open-loop request failed");
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (samples[i].ok && traffic.checked("open", index, i)) keep(kept, requests[i], replies[i]);
  }
  return samples;
}

// ---------------------------------------------------------------- replay ---

/// ServingServer's scorer loop rebuilt from the serving layer's public
/// pieces (EmbeddingCache, ServingModel::compute_row and score_rows), with a
/// span around each call: the same FIFO coalescing into batches of at most
/// kBatchSize pairs and the same once-per-batch row resolution.
class ReplayServer {
 public:
  ReplayServer(const nn::ServingModel& model, std::size_t cache_capacity, Tracer& tracer)
      : model_(&model), tracer_(&tracer), cache_(cache_capacity, model.row_bytes()) {
    scorer_ = std::thread([this] { loop(); });
  }
  ~ReplayServer() { shutdown(); }
  ReplayServer(const ReplayServer&) = delete;
  ReplayServer& operator=(const ReplayServer&) = delete;

  std::future<serving::ScoredReply> submit(Request pairs) {
    Pending pending{std::move(pairs), {}, {}, 0};
    auto future = pending.promise.get_future();
    if (!queue_.push(std::move(pending))) throw std::runtime_error("replay server is shut down");
    return future;
  }

  void shutdown() {
    if (scorer_.joinable()) {
      queue_.close();
      scorer_.join();
    }
  }

  /// Valid after shutdown().
  [[nodiscard]] serving::EmbeddingCache::Stats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] std::uint64_t lookups() const { return lookups_; }
  [[nodiscard]] const std::vector<std::size_t>& batch_pairs() const { return batch_pairs_; }

 private:
  struct Pending {
    Request pairs;
    std::promise<serving::ScoredReply> promise;
    std::vector<float> scores;
    std::size_t scored = 0;
  };

  void loop() {
    std::deque<Pending> pending;
    std::size_t unscored = 0;
    const auto admit = [&](Pending&& request) {
      request.scores.resize(request.pairs.size());
      unscored += request.pairs.size();
      pending.push_back(std::move(request));
    };
    while (true) {
      if (pending.empty()) {
        auto request = queue_.pop();
        if (!request.has_value()) break;
        admit(std::move(*request));
      }
      while (unscored < kBatchSize) {
        auto request = queue_.try_pop();
        if (!request.has_value()) break;
        admit(std::move(*request));
      }
      try {
        unscored -= score_batch(pending);
      } catch (...) {
        for (Pending& request : pending) request.promise.set_exception(std::current_exception());
        pending.clear();
        unscored = 0;
      }
      while (!pending.empty() && pending.front().scored == pending.front().pairs.size()) {
        serving::ScoredReply reply;
        reply.scores = std::move(pending.front().scores);
        reply.sequence = ++sequence_;
        pending.front().promise.set_value(std::move(reply));
        pending.pop_front();
      }
    }
  }

  /// Scores the next batch FIFO across `pending`; returns the pairs scored.
  std::size_t score_batch(std::deque<Pending>& pending) {
    struct Slot {
      Pending* request;
      std::size_t pair;
    };
    std::vector<Slot> slots;
    for (Pending& request : pending) {
      for (std::size_t i = request.scored; i < request.pairs.size() && slots.size() < kBatchSize;
           ++i) {
        slots.push_back({&request, i});
      }
    }
    if (slots.empty()) return 0;
    Span batch(*tracer_, "serving.batch", 0);
    std::unordered_map<NodeId, std::vector<std::byte>> rows;
    const auto resolve = [&](NodeId node) -> const std::byte* {
      auto it = rows.find(node);
      if (it == rows.end()) {
        std::vector<std::byte> row(model_->row_bytes());
        bool hit = false;
        {
          Span span(*tracer_, "serving.cache_lookup", 0);
          hit = cache_.lookup(node, row);
        }
        ++lookups_;
        if (!hit) {
          {
            Span span(*tracer_, "serving.compute_row", 0);
            model_->compute_row(node, row);
          }
          Span span(*tracer_, "serving.cache_insert", 0);
          cache_.insert(node, row);
        }
        it = rows.emplace(node, std::move(row)).first;
      }
      return it->second.data();
    };
    std::vector<const std::byte*> u_rows(slots.size());
    std::vector<const std::byte*> v_rows(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const NodePair& pair = slots[i].request->pairs[slots[i].pair];
      u_rows[i] = resolve(pair.u);
      v_rows[i] = resolve(pair.v);
    }
    std::vector<float> scores;
    {
      Span span(*tracer_, "serving.score_rows", 0);
      scores = model_->score_rows(u_rows, v_rows);
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slots[i].request->scores[slots[i].pair] = scores[i];
      ++slots[i].request->scored;
    }
    batch_pairs_.push_back(slots.size());
    return slots.size();
  }

  const nn::ServingModel* model_;
  Tracer* tracer_;
  serving::EmbeddingCache cache_;
  util::BoundedQueue<Pending> queue_{256};
  std::uint64_t lookups_ = 0;               // scorer thread only
  std::uint64_t sequence_ = 0;              // scorer thread only
  std::vector<std::size_t> batch_pairs_;    // scorer thread only
  std::thread scorer_;  // last: starts after everything it reads
};

double mean_us(std::span<const SpanRecord> spans, const std::string& name) {
  const std::size_t n = count(spans, name);
  return n > 0 ? busy_s(spans, name) * 1e6 / static_cast<double>(n) : 0.0;
}

/// Shows that ReplayServer still runs ServingServer's program: one client
/// sends the same requests, each after the previous reply, through both, so
/// batching is deterministic. Both must return the same scores, score the
/// same number of batches and use the cache identically.
void check_replay_matches_server(const ServeSetup& setup, const Traffic& traffic,
                                 RunResult& result) {
  const auto pieces = traffic.requests("match", 0, kMatchPieces);
  std::vector<Request> requests;
  for (std::size_t i = 0, k = 0; i < pieces.size(); ++k) {
    Request request;
    for (std::size_t n = 1 + 6 * (k % 3); n > 0 && i < pieces.size(); --n, ++i) {
      request.insert(request.end(), pieces[i].begin(), pieces[i].end());
    }
    requests.push_back(std::move(request));
  }
  const auto serve_all = [&](auto& server) {
    std::vector<std::vector<float>> replies;
    for (const Request& request : requests) replies.push_back(server.submit(request).get().scores);
    server.shutdown();
    return replies;
  };
  ++result.attempted;
  try {
    const auto config = server_config(setup);
    serving::ServingServer server(*setup.model, config);
    Tracer tracer;  // this check's spans are not reported
    ReplayServer replay(*setup.model, config.cache_capacity, tracer);
    const auto served = serve_all(server);
    const auto replayed = serve_all(replay);
    const auto a = server.cache_stats();
    const auto b = replay.cache_stats();
    if (served != replayed || a.lookups != b.lookups || a.hits != b.hits ||
        a.misses != b.misses || a.evictions != b.evictions ||
        server.stats().batches != replay.batch_pairs().size()) {
      result.fail("replay differs from ServingServer in scores, batches or cache use");
    }
  } catch (const std::exception& error) {
    result.fail(std::string("replay-versus-server check threw: ") + error.what());
  }
}

RunResult traced_serving(const Options& options) {
  RunResult result;
  const auto setup = make_setup(options.seed);
  const Traffic traffic(setup->model->num_nodes(), options.seed);
  const auto config = server_config(*setup);
  check_replay_matches_server(*setup, traffic, result);
  const auto warmup = traffic.requests("warmup", 0, kWarmupRequests);
  const auto open = traffic.requests(
      "open", 0, static_cast<std::size_t>(kOpenLoopRate * options.seconds * kOpenLoopShare / 2));
  Kept kept;

  // Tracing overhead: the same closed-loop blocks through the library's
  // server and through the traced replay, each after the same warm-up.
  const auto blocks_median = [&](auto& server) {
    closed_loop(server, traffic, "warmup", 0, warmup, kept, result);
    std::vector<double> walls;
    for (std::uint64_t b = 0; b < kMinRounds; ++b) {
      walls.push_back(closed_loop(server, traffic, "closed", b,
                                  traffic.requests("closed", b, kBlockRequests), kept, result));
    }
    return median(walls);
  };
  double untraced_s = 0.0;
  {
    serving::ServingServer server(*setup->model, config);
    untraced_s = blocks_median(server);
  }
  Tracer tracer;
  ReplayServer replay(*setup->model, config.cache_capacity, tracer);
  const double traced_s = blocks_median(replay);
  const auto samples = open_loop(replay, traffic, 0, open, kept, result);
  replay.shutdown();
  verify(*setup->model, kept, result);

  const auto stats = replay.cache_stats();
  if (stats.hits + stats.misses != stats.lookups || stats.lookups != replay.lookups()) {
    result.fail("replay cache counters do not reconcile: hits + misses != lookups");
  }
  const std::vector<SpanRecord> spans = tracer.spans();
  std::vector<double> late_ms;
  for (const auto& sample : samples) late_ms.push_back(sample.late_s() * 1e3);
  double pairs = 0.0;
  for (const std::size_t n : replay.batch_pairs()) pairs += static_cast<double>(n);
  const auto batches = static_cast<double>(replay.batch_pairs().size());

  std::vector<Metric>& m = result.metrics;
  m = per_layer_metrics();
  set_metric(m, "serving.cache_hit_ratio",
             stats.lookups > 0 ? static_cast<double>(stats.hits) / static_cast<double>(stats.lookups)
                               : 0.0);
  set_metric(m, "serving.cache_evictions", static_cast<double>(stats.evictions));
  set_metric(m, "serving.cache_lookup_us", mean_us(spans, "serving.cache_lookup"));
  set_metric(m, "serving.compute_row_us", mean_us(spans, "serving.compute_row"));
  set_metric(m, "serving.score_rows_us", mean_us(spans, "serving.score_rows"));
  set_metric(m, "serving.batch_fill",
             batches > 0 ? pairs / batches / static_cast<double>(kBatchSize) : 0.0);
  set_metric(m, "serving.loadgen_late_ms", tail_percentile(late_ms).value);
  set_metric(m, "trace.overhead_s", traced_s - untraced_s);

  result.details = {{"untraced_block_s", untraced_s, "s"},
                    {"traced_block_s", traced_s, "s"},
                    {"cache_lookups", static_cast<double>(stats.lookups), "count"},
                    {"cache_hits", static_cast<double>(stats.hits), "count"},
                    {"cache_misses", static_cast<double>(stats.misses), "count"},
                    {"loadgen_late_ms.tail_percentile", tail_percentile(late_ms).percentile, "pct"},
                    {"verified_replies", static_cast<double>(kept.replies.size()), "count"},
                    {"spans", static_cast<double>(spans.size()), "count"}};
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    write_chrome_trace(out, spans);
  }
  return result;
}

/// A set-up with a server started on it; the server is dropped first.
struct Started {
  std::unique_ptr<ServeSetup> setup;
  std::unique_ptr<serving::ServingServer> server;
};

/// Times one set-up and server start on CPU `index` in turn, then drops both.
double time_setup(std::uint64_t seed, std::size_t index) {
  return seconds_on_cpu(index, [seed] {
    Started started{make_setup(seed), nullptr};
    started.server = std::make_unique<serving::ServingServer>(*started.setup->model,
                                                              server_config(*started.setup));
    return started;
  });
}

RunResult timed_serving(const Options& options) {
  RunResult result;
  const auto setup = make_setup(options.seed);
  serving::ServingServer server(*setup->model, server_config(*setup));
  const Traffic traffic(setup->model->num_nodes(), options.seed);
  const auto warmup = traffic.requests("warmup", 0, kWarmupRequests);
  Kept kept;

  // Fill the cache before timing anything.
  closed_loop(server, traffic, "warmup", 0, warmup, kept, result);

  // Set-ups, open-loop segments and closed-loop blocks alternate, so each
  // samples the whole window and a slow stretch of the host hits only some
  // of them.
  const std::size_t rounds =
      std::max(kMinRounds, static_cast<std::size_t>(options.seconds / kRoundSeconds));
  const auto per_segment = static_cast<std::size_t>(kOpenLoopRate * options.seconds *
                                                    kOpenLoopShare / static_cast<double>(rounds));
  std::vector<double> setup_s;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  std::vector<double> block_s;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      setup_s.push_back(time_setup(options.seed, setup_s.size()));
    }
    const auto open = traffic.requests("open", round, per_segment);
    for (const auto& sample : open_loop(server, traffic, round, open, kept, result)) {
      latency_ms.push_back(sample.latency_s() * 1e3);
      late_ms.push_back(sample.late_s() * 1e3);
    }
    const auto block = traffic.requests("closed", round, kBlockRequests);
    block_s.push_back(closed_loop(server, traffic, "closed", round, block, kept, result));
  }

  const auto cache = server.cache_stats();
  server.shutdown();
  verify(*setup->model, kept, result);

  // The gated latency is the median. Tails moved too much with the host: one
  // stall of a second or two, in about one run in twenty, moved the pooled
  // p99 up to 30-fold, and even the median over segments of each segment's
  // p90 spread 0.16-0.27 (interquartile range over median) across 10 seeds.
  const Tail tail = tail_percentile(latency_ms);
  const double qps = static_cast<double>(kBlockRequests) / median(block_s);
  result.metrics = {{"setup_s", median(setup_s), "s"},
                    {"job_s", median(block_s), "s"},
                    {"latency_ms", median(latency_ms), "ms"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
  result.details = {
      {"serve_p50_ms", median(latency_ms), "ms"},
      {"serve_tail_ms", tail.value, "ms"},
      {"serve_tail_percentile", tail.percentile, "pct"},
      {"serve_latency_samples", static_cast<double>(tail.samples), "count"},
      {"serve_qps", qps, "1/s"},
      {"closed_loop_blocks", static_cast<double>(block_s.size()), "count"},
      {"setup_s.samples", static_cast<double>(setup_s.size()), "count"},
      {"open_loop_rate", kOpenLoopRate, "1/s"},
      {"loadgen_late_ms", tail_percentile(late_ms).value, "ms"},
      {"cache_hit_ratio",
       cache.lookups > 0 ? static_cast<double>(cache.hits) / static_cast<double>(cache.lookups)
                         : 0.0,
       "ratio"},
      {"verified_replies", static_cast<double>(kept.replies.size()), "count"}};
  return result;
}

}  // namespace

RunResult run_serving(const Options& options) {
  return options.trace ? traced_serving(options) : timed_serving(options);
}

}  // namespace perfbench
