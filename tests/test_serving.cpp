// Serving test battery (DESIGN.md §11).
//
// Proves the online serving layer correct under load:
//   * EmbeddingCache unit suite — LRU order, counter consistency,
//     capacity-0 passthrough, byte-identical reuse after eviction.
//   * tensor/int8 kernel suite — documented round-trip bound amax/254,
//     integer-grid exactness (mirrors test_comm's CommHook tests), int8 dot.
//   * First-layer table — compute_row's rows, cold and warm, bit-identical
//     to table-free L-hop encodes for GCN/SAGE/GAT/GATv2 x 1-3 layers x
//     f32/int8 options in two visiting orders, and from four threads at once.
//   * Seeded oracle property test — 20 randomized request traces replayed
//     through the full serving stack across cache size x batch size x client
//     thread count, each reply bit-identical to core::Evaluator::score_pairs
//     with all-zero fanouts (full-neighborhood inference), swept across all
//     supported SPLPG_VEC backends in-process.
//   * Concurrency soak — concurrent clients under injected scorer latency,
//     stragglers and mid-flight cache eviction: no lost or duplicated
//     responses, per-client in-order delivery, clean drain shutdown; a batch
//     that throws fails its own requests' futures and serving goes on.
//   * Int8 accuracy gate — AUC of the quantized model within 0.01 of f32,
//     per-pair dot error within the analytic bound, and bit-exactness for
//     weights already on their quantization grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "eval/metrics.hpp"
#include "nn/serving_model.hpp"
#include "sampling/edge_split.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "serving/embedding_cache.hpp"
#include "serving/server.hpp"
#include "tensor/int8.hpp"
#include "tensor/vec.hpp"
#include "util/bounded_queue.hpp"
#include "util/rng.hpp"

namespace splpg {
namespace {

using graph::NodeId;
using sampling::NodePair;
using serving::EmbeddingCache;
using serving::ServingConfig;
using serving::ServingServer;

// ---------------------------------------------------------------------------
// EmbeddingCache unit suite

std::vector<std::byte> row_of(std::uint8_t fill, std::size_t bytes = 8) {
  return std::vector<std::byte>(bytes, std::byte{fill});
}

TEST(EmbeddingCache, EvictsLeastRecentlyUsedFirst) {
  EmbeddingCache cache(2, 8);
  cache.insert(1, row_of(1));
  cache.insert(2, row_of(2));
  std::vector<std::byte> out(8);
  ASSERT_TRUE(cache.lookup(1, out));  // refresh 1 -> 2 is now LRU
  cache.insert(3, row_of(3));         // evicts 2
  EXPECT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, row_of(1));
  EXPECT_FALSE(cache.lookup(2, out));
  EXPECT_TRUE(cache.lookup(3, out));
  EXPECT_EQ(cache.size(), 2U);
  EXPECT_EQ(cache.stats().evictions, 1U);
}

TEST(EmbeddingCache, HitsPlusMissesEqualsLookups) {
  EmbeddingCache cache(2, 8);
  util::Rng rng(42);
  std::vector<std::byte> out(8);
  for (int i = 0; i < 200; ++i) {
    const auto node = static_cast<NodeId>(rng.uniform_u64(6));
    if (!cache.lookup(node, out)) cache.insert(node, row_of(static_cast<std::uint8_t>(node)));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lookups, 200U);
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  EXPECT_GT(stats.hits, 0U);
  EXPECT_GT(stats.evictions, 0U);
}

TEST(EmbeddingCache, CapacityZeroIsPassthrough) {
  EmbeddingCache cache(0, 8);
  cache.insert(1, row_of(1));
  std::vector<std::byte> out(8);
  EXPECT_FALSE(cache.lookup(1, out));
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.stats().hits, 0U);
  EXPECT_EQ(cache.stats().misses, 1U);
}

TEST(EmbeddingCache, ReinsertAndReuseAfterEvictionHoldIdenticalBytes) {
  EmbeddingCache cache(1, 8);
  cache.insert(1, row_of(0xAB));
  cache.insert(1, row_of(0xCD));  // no-op: rows are pure functions of the node
  std::vector<std::byte> out(8);
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, row_of(0xAB));
  cache.insert(2, row_of(2));  // evicts 1
  ASSERT_FALSE(cache.lookup(1, out));
  cache.insert(1, row_of(0xAB));  // "recompute" produces the same bytes
  ASSERT_TRUE(cache.lookup(1, out));
  EXPECT_EQ(out, row_of(0xAB));
}

TEST(EmbeddingCache, RejectsMalformedRows) {
  EXPECT_THROW(EmbeddingCache(4, 0), std::invalid_argument);
  EmbeddingCache cache(4, 8);
  EXPECT_THROW(cache.insert(1, row_of(1, 7)), std::invalid_argument);
  std::vector<std::byte> small(7);
  EXPECT_THROW(static_cast<void>(cache.lookup(1, small)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, CloseDrainsRemainingItemsThenSignalsEnd) {
  util::BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.push(1));
  ASSERT_TRUE(queue.push(2));
  queue.close();
  EXPECT_FALSE(queue.push(3));  // closed: rejected
  EXPECT_EQ(queue.pop(), std::optional<int>(1));
  EXPECT_EQ(queue.pop(), std::optional<int>(2));
  EXPECT_EQ(queue.pop(), std::nullopt);  // drained
}

// ---------------------------------------------------------------------------
// tensor/int8 kernel suite (mirrors test_comm's CommHook int8 contract)

TEST(Int8Kernels, RoundTripStaysWithinDocumentedBound) {
  util::Rng rng(314);
  tensor::Matrix m(13, 17);
  for (float& x : m.data()) x = static_cast<float>(rng.uniform(-4.0, 4.0));
  float amax = 0.0F;
  for (const float x : m.data()) amax = std::max(amax, std::abs(x));

  const tensor::Matrix original = m;
  const float bound = tensor::quantize_dequantize_inplace(m);
  EXPECT_NEAR(bound, amax / 254.0F, amax * 1e-5F);
  for (std::size_t i = 0; i < m.data().size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i] - original.data()[i]), bound + amax * 1e-5F);
  }
}

TEST(Int8Kernels, IsExactOnIntegerGridAndZeros) {
  // amax = 127 -> scale = 1: integers in [-127, 127] are their own codes.
  tensor::Matrix m(2, 4);
  const float grid[8] = {-127.0F, -64.0F, -1.0F, 0.0F, 1.0F, 5.0F, 64.0F, 127.0F};
  std::copy(std::begin(grid), std::end(grid), m.data().begin());
  const auto q = tensor::quantize_symmetric(m);
  EXPECT_EQ(q.scale, 1.0F);
  EXPECT_EQ(q.payload_bytes(), 8U + sizeof(float));
  const auto back = tensor::dequantize(q);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(back.data()[i], grid[i]);

  tensor::Matrix zeros(3, 3);
  for (float& x : zeros.data()) x = 0.0F;
  const auto qz = tensor::quantize_symmetric(zeros);
  EXPECT_EQ(qz.scale, 0.0F);
  const auto back_zeros = tensor::dequantize(qz);
  for (const float x : back_zeros.data()) EXPECT_EQ(x, 0.0F);
}

TEST(Int8Kernels, DotAccumulatesExactlyInInt32) {
  const std::int8_t a[4] = {127, -127, 64, 1};
  const std::int8_t b[4] = {127, 127, -64, 1};
  // 16129 - 16129 - 4096 + 1 = -4095, exactly representable in int32.
  EXPECT_EQ(tensor::dot_i8_i32({a, 4}, {b, 4}), -4095);
  EXPECT_EQ(tensor::score_dot_i8({a, 4}, 2.0F, {b, 4}, 0.5F), -4095.0F);
  EXPECT_EQ(tensor::score_dot_i8({a, 4}, 0.0F, {b, 4}, 0.5F), 0.0F);
}

// ---------------------------------------------------------------------------
// Serving fixture: a small dataset, split, randomly initialized model, and
// the all-zero-fanout Evaluator oracle.

struct Fixture {
  data::Dataset dataset;
  sampling::LinkSplit split;
  std::unique_ptr<nn::LinkPredictionModel> model;
  std::unique_ptr<core::Evaluator> oracle;

  [[nodiscard]] std::vector<float> oracle_scores(std::span<const NodePair> pairs) const {
    return oracle->score_pairs(*model, pairs);
  }
};

Fixture make_fixture(nn::PredictorKind predictor, std::uint64_t seed = 11) {
  Fixture f;
  f.dataset = data::make_dataset("cora", /*scale=*/0.03, seed);
  util::Rng split_rng = util::Rng(seed).split("split");
  f.split = sampling::split_edges(f.dataset.graph, {}, split_rng);

  nn::ModelConfig config;
  config.gnn = nn::GnnKind::kSage;
  config.predictor = predictor;
  config.in_dim = f.dataset.features.dim();
  config.hidden_dim = 16;
  config.num_layers = 2;
  config.predictor_layers = 2;
  f.model = std::make_unique<nn::LinkPredictionModel>(config, seed);

  // The oracle: centralized evaluation-path scoring with all-zero fanouts
  // (exact full neighborhoods) — the serving determinism contract's anchor.
  f.oracle = std::make_unique<core::Evaluator>(
      f.split, f.dataset.features, std::vector<std::uint32_t>(config.num_layers, 0U));
  return f;
}

std::vector<NodePair> random_pairs(util::Rng& rng, NodeId num_nodes, std::size_t count) {
  std::vector<NodePair> pairs(count);
  for (auto& pair : pairs) {
    pair.u = static_cast<NodeId>(rng.uniform_u64(num_nodes));
    pair.v = static_cast<NodeId>(rng.uniform_u64(num_nodes));
  }
  return pairs;
}

TEST(ServingModel, ScoresBitIdenticalToZeroFanoutEvaluator) {
  for (const auto predictor : {nn::PredictorKind::kDot, nn::PredictorKind::kMlp}) {
    const Fixture f = make_fixture(predictor);
    const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
    util::Rng rng(123);
    const auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 33);
    const auto expected = f.oracle_scores(pairs);
    const auto got = serving.score_pairs(pairs);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "pair " << i << " predictor "
                                     << static_cast<int>(predictor);
    }
  }
}

TEST(ServingModel, ComputeRowIsAPureFunctionOfTheNode) {
  const Fixture f = make_fixture(nn::PredictorKind::kDot);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
  std::vector<std::byte> first(serving.row_bytes());
  std::vector<std::byte> second(serving.row_bytes());
  serving.compute_row(3, first);
  serving.compute_row(3, second);
  EXPECT_EQ(first, second);
  EXPECT_THROW(serving.compute_row(f.split.train_graph.num_nodes(), first),
               std::out_of_range);
}

// ---------------------------------------------------------------------------
// First-layer table: compute_row's warm rows against full L-hop encodes.

/// A randomly initialized model of the given architecture over `f`'s data.
nn::LinkPredictionModel make_model(const Fixture& f, nn::GnnKind gnn, std::uint32_t layers) {
  nn::ModelConfig config;
  config.gnn = gnn;
  config.predictor = nn::PredictorKind::kMlp;
  config.in_dim = f.dataset.features.dim();
  config.hidden_dim = 16;
  config.num_layers = layers;
  config.predictor_layers = 2;
  return nn::LinkPredictionModel(config, 5 + layers);
}

/// Every node's cache row as a full L-hop zero-fanout encode computes it,
/// with no first-layer table: the Evaluator's encode, run per node with the
/// weights frozen as `options` freezes them.
std::vector<std::vector<std::byte>> cold_rows(const Fixture& f,
                                              const nn::LinkPredictionModel& source,
                                              nn::ServingOptions options) {
  nn::LinkPredictionModel frozen(source.config(), 0);
  nn::copy_parameters(source, frozen);
  if (options.int8_weights) {
    for (auto& parameter : frozen.parameters()) {
      static_cast<void>(tensor::quantize_dequantize_inplace(parameter.mutable_value()));
    }
  }
  const sampling::NeighborSampler sampler(
      std::vector<std::uint32_t>(source.config().num_layers, 0U));
  sampling::GraphProvider provider(f.split.train_graph);
  const std::size_t dim = source.config().hidden_dim;
  std::vector<std::vector<std::byte>> rows(f.split.train_graph.num_nodes());
  for (NodeId v = 0; v < rows.size(); ++v) {
    util::Rng rng(1);
    const NodeId seeds[1] = {v};
    const auto embedding = frozen.encode(sampler.sample(provider, seeds, rng), f.dataset.features);
    const auto row = embedding.value().row(0);
    if (options.int8_embeddings) {
      rows[v].resize(dim + sizeof(float));
      const float scale = tensor::quantize_span(
          row, {reinterpret_cast<std::int8_t*>(rows[v].data()), dim});
      std::memcpy(rows[v].data() + dim, &scale, sizeof(float));
    } else {
      rows[v].resize(dim * sizeof(float));
      std::memcpy(rows[v].data(), row.data(), rows[v].size());
    }
  }
  return rows;
}

TEST(ServingModel, WarmFirstLayerRowsMatchColdEncodesBitwise) {
  const Fixture f = make_fixture(nn::PredictorKind::kMlp);
  const NodeId num_nodes = f.split.train_graph.num_nodes();
  std::vector<NodeId> ascending(num_nodes);
  std::iota(ascending.begin(), ascending.end(), 0U);
  std::vector<NodeId> shuffled = ascending;
  util::Rng(19).shuffle(std::span<NodeId>(shuffled));
  std::vector<NodePair> pairs(num_nodes);
  for (NodeId i = 0; i < num_nodes; ++i) pairs[i] = {shuffled[i], ascending[i]};

  nn::ServingOptions variants[3];
  variants[1].int8_weights = true;
  variants[2].int8_embeddings = true;
  for (const auto gnn :
       {nn::GnnKind::kGcn, nn::GnnKind::kSage, nn::GnnKind::kGat, nn::GnnKind::kGatv2}) {
    for (const std::uint32_t layers : {1U, 2U, 3U}) {
      const nn::LinkPredictionModel model = make_model(f, gnn, layers);
      for (std::size_t variant = 0; variant < 3; ++variant) {
        const nn::ServingOptions options = variants[variant];
        const std::string where = nn::to_string(gnn) + " layers " + std::to_string(layers) +
                                  " variant " + std::to_string(variant);
        const auto expected = cold_rows(f, model, options);
        for (const auto* order : {&ascending, &shuffled}) {
          // A fresh table per order; the second pass reads every row from it.
          const nn::ServingModel serving(model, f.split.train_graph, f.dataset.features,
                                         options);
          std::vector<std::vector<std::byte>> rows(num_nodes,
                                                   std::vector<std::byte>(serving.row_bytes()));
          for (int pass = 0; pass < 2; ++pass) {
            for (const NodeId v : *order) {
              serving.compute_row(v, rows[v]);
              ASSERT_EQ(rows[v], expected[v]) << where << " node " << v << " pass " << pass;
            }
          }
          // Scores from the warm rows equal the table-free score_pairs.
          std::vector<const std::byte*> u_rows(pairs.size());
          std::vector<const std::byte*> v_rows(pairs.size());
          for (std::size_t i = 0; i < pairs.size(); ++i) {
            u_rows[i] = rows[pairs[i].u].data();
            v_rows[i] = rows[pairs[i].v].data();
          }
          EXPECT_EQ(serving.score_rows(u_rows, v_rows), serving.score_pairs(pairs)) << where;
        }
      }
    }
  }
}

TEST(ServingModel, ConcurrentComputeRowMatchesColdEncodes) {
  // Four threads fill one table over overlapping node sets, each starting at
  // a different node; every row equals the table-free encode.
  const Fixture f = make_fixture(nn::PredictorKind::kMlp);
  const NodeId num_nodes = f.split.train_graph.num_nodes();
  for (const auto gnn : {nn::GnnKind::kSage, nn::GnnKind::kGat}) {
    const nn::LinkPredictionModel model = make_model(f, gnn, 3);
    const auto expected = cold_rows(f, model, {});
    const nn::ServingModel serving(model, f.split.train_graph, f.dataset.features);
    constexpr std::size_t kThreads = 4;
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<std::byte> row(serving.row_bytes());
        const auto start = static_cast<NodeId>(t * num_nodes / kThreads);
        for (NodeId i = 0; i < num_nodes; ++i) {
          const NodeId v = (start + i) % num_nodes;
          serving.compute_row(v, row);
          if (row != expected[v]) mismatches.fetch_add(1);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0) << nn::to_string(gnn);
  }
}

TEST(ServingServer, ValidatesRequestsAndRejectsAfterShutdown) {
  const Fixture f = make_fixture(nn::PredictorKind::kDot);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
  ServingServer server(serving);
  EXPECT_THROW(static_cast<void>(server.submit({{f.split.train_graph.num_nodes(), 0}})),
               std::out_of_range);
  const auto empty = server.score_pairs({});
  EXPECT_TRUE(empty.scores.empty());
  EXPECT_GT(empty.sequence, 0U);
  server.shutdown();
  EXPECT_THROW(static_cast<void>(server.submit({{0, 1}})), std::runtime_error);
  server.shutdown();  // idempotent
}

TEST(ServingServer, CacheHitsAccumulateAcrossRepeatedRequests) {
  const Fixture f = make_fixture(nn::PredictorKind::kDot);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
  ServingServer server(serving);
  util::Rng rng(6);
  const auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 10);
  const auto first = server.score_pairs(pairs);
  const auto warm_misses = server.cache_stats().misses;
  const auto second = server.score_pairs(pairs);
  EXPECT_EQ(first.scores, second.scores);
  EXPECT_EQ(server.cache_stats().misses, warm_misses);  // all hits the 2nd time
  const auto totals = server.stats();
  EXPECT_EQ(totals.requests, 2U);
  EXPECT_EQ(totals.pairs, 20U);
}

TEST(ServingServer, ThrowingBatchFailsItsRequestsAndServingContinues) {
  const Fixture f = make_fixture(nn::PredictorKind::kDot);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
  ServingConfig config;
  config.batch_size = 4;
  config.batch_hook = [](std::uint64_t batch_index) {
    if (batch_index == 1 || batch_index == 6) throw std::runtime_error("injected");
  };
  ServingServer server(serving, config);
  util::Rng rng(37);

  // One 3-pair request at a time: request i is batch i, and only batch 1 fails.
  for (int i = 0; i < 4; ++i) {
    const auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 3);
    auto future = server.submit(pairs);
    if (i == 1) {
      EXPECT_THROW(static_cast<void>(future.get()), std::runtime_error);
    } else {
      EXPECT_EQ(future.get().scores, f.oracle_scores(pairs)) << "request " << i;
    }
  }

  // Queued requests spread over batches 4.., of which batch 6 fails: each
  // future holds either the oracle's scores or the hook's exception, once.
  std::vector<std::vector<NodePair>> requests;
  std::vector<std::future<serving::ScoredReply>> futures;
  for (int i = 0; i < 12; ++i) {
    requests.push_back(random_pairs(rng, f.split.train_graph.num_nodes(), 3));
    futures.push_back(server.submit(requests.back()));
  }
  server.shutdown();
  std::size_t failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      EXPECT_EQ(futures[i].get().scores, f.oracle_scores(requests[i])) << "request " << i;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "injected");
      ++failed;
    }
  }
  EXPECT_GE(failed, 1U);
  EXPECT_LE(failed, 2U);  // a 4-pair batch holds pairs of at most two 3-pair requests
  EXPECT_EQ(server.stats().requests, 16U - 1U - failed);
}

// ---------------------------------------------------------------------------
// Seeded oracle property test: 20 randomized traces through the full
// serving stack, bit-identical to the oracle across cache capacity x batch
// size x client thread count.

struct TraceRequest {
  std::vector<NodePair> pairs;
  std::vector<float> expected;
};

std::vector<TraceRequest> make_trace(const Fixture& f, std::uint64_t trace_seed,
                                     std::size_t num_requests) {
  util::Rng rng = util::Rng(trace_seed).split("trace");
  std::vector<TraceRequest> trace(num_requests);
  for (auto& request : trace) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(1, 17));
    request.pairs = random_pairs(rng, f.split.train_graph.num_nodes(), count);
    request.expected = f.oracle_scores(request.pairs);
  }
  return trace;
}

/// Replays `trace` against `server` from `num_clients` threads (round-robin
/// request ownership) and asserts every reply is bit-identical to the
/// oracle and sequences are strictly increasing per client.
void replay_trace(ServingServer& server, const std::vector<TraceRequest>& trace,
                  std::size_t num_clients) {
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t last_sequence = 0;
      for (std::size_t i = c; i < trace.size(); i += num_clients) {
        const auto reply = server.submit(trace[i].pairs).get();
        if (reply.scores != trace[i].expected) mismatches.fetch_add(1);
        if (reply.sequence <= last_sequence) mismatches.fetch_add(1);
        last_sequence = reply.sequence;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ServingOracle, TracesAreBitIdenticalAcrossCacheBatchAndClientMatrix) {
  const Fixture f = make_fixture(nn::PredictorKind::kMlp);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);

  constexpr std::size_t kNumTraces = 20;
  std::vector<std::vector<TraceRequest>> traces;
  traces.reserve(kNumTraces);
  for (std::size_t t = 0; t < kNumTraces; ++t) {
    traces.push_back(make_trace(f, 1000 + t, /*num_requests=*/6));
  }

  const std::size_t cache_capacities[] = {0, 16, std::numeric_limits<std::size_t>::max()};
  const std::size_t batch_sizes[] = {1, 8, 64};
  const std::size_t client_counts[] = {1, 2, 7};
  std::size_t config_index = 0;
  for (const std::size_t cache_capacity : cache_capacities) {
    for (const std::size_t batch_size : batch_sizes) {
      // Pair each (cache, batch) cell with one client count — every value of
      // each axis meets every value of the others across the 9 cells.
      const std::size_t num_clients = client_counts[config_index % 3];
      ++config_index;
      ServingConfig config;
      config.cache_capacity = cache_capacity;
      config.batch_size = batch_size;
      config.queue_capacity = 8;
      ServingServer server(serving, config);
      for (const auto& trace : traces) replay_trace(server, trace, num_clients);
      const auto stats = server.stats();
      EXPECT_EQ(stats.requests, kNumTraces * 6);
      const auto cache = server.cache_stats();
      EXPECT_EQ(cache.hits + cache.misses, cache.lookups);
      if (cache_capacity == 0) {
        EXPECT_EQ(cache.hits, 0U);
      }
    }
  }
}

TEST(ServingOracle, BitIdenticalUnderEverySupportedVecBackend) {
  const Fixture f = make_fixture(nn::PredictorKind::kMlp);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
  util::Rng rng(77);
  const auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 19);

  const auto original = tensor::vec_active_backend();
  for (int b = 0; b < tensor::kNumVecBackends; ++b) {
    const auto backend = static_cast<tensor::VecBackend>(b);
    if (!tensor::vec_backend_supported(backend)) continue;
    ASSERT_TRUE(tensor::set_vec_backend(backend));
    // Per-backend contract: serving == oracle computed under the SAME pin.
    const auto expected = f.oracle_scores(pairs);
    ServingConfig config;
    config.batch_size = 5;
    ServingServer server(serving, config);
    const auto reply = server.score_pairs(pairs);
    EXPECT_EQ(reply.scores, expected) << tensor::vec_backend_name(backend);
  }
  ASSERT_TRUE(tensor::set_vec_backend(original));
}

// ---------------------------------------------------------------------------
// Concurrency soak: clients under injected latency/stragglers + mid-flight
// cache eviction. Delivery contract: nothing lost, nothing duplicated,
// per-client in-order completion, clean drain on shutdown.

TEST(ServingSoak, SurvivesStragglersAndCacheEvictionUnderLoad) {
  const Fixture f = make_fixture(nn::PredictorKind::kDot);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);

  constexpr std::size_t kClients = 7;
  constexpr std::size_t kRequestsPerClient = 24;
  std::vector<std::vector<TraceRequest>> per_client;
  per_client.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    per_client.push_back(make_trace(f, 9000 + c, kRequestsPerClient));
  }

  ServingConfig config;
  config.batch_size = 8;
  config.queue_capacity = 4;  // force submit-side backpressure
  config.cache_capacity = 12;
  config.batch_hook = [](std::uint64_t batch_index) {
    // Seeded latency injection: every 7th batch is slow, every 19th is a
    // straggler. Deterministic in the batch index, not wall clock.
    if (batch_index % 19 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    } else if (batch_index % 7 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  };
  auto server = std::make_unique<ServingServer>(serving, config);

  std::atomic<bool> chaos_running{true};
  std::thread chaos([&] {
    // Mid-flight invalidation pressure: rows must recompute byte-identically.
    while (chaos_running.load()) {
      server->clear_cache();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::atomic<int> mismatches{0};
  std::atomic<int> order_violations{0};
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::uint64_t last_sequence = 0;
      for (const auto& request : per_client[c]) {
        const auto reply = server->submit(request.pairs).get();
        delivered.fetch_add(1);
        if (reply.scores != request.expected) mismatches.fetch_add(1);
        if (reply.sequence <= last_sequence) order_violations.fetch_add(1);
        last_sequence = reply.sequence;
      }
    });
  }
  for (auto& client : clients) client.join();
  chaos_running.store(false);
  chaos.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(order_violations.load(), 0);
  EXPECT_EQ(delivered.load(), kClients * kRequestsPerClient);
  const auto stats = server->stats();
  EXPECT_EQ(stats.requests, kClients * kRequestsPerClient);
  std::uint64_t total_pairs = 0;
  for (const auto& trace : per_client) {
    for (const auto& request : trace) total_pairs += request.pairs.size();
  }
  EXPECT_EQ(stats.pairs, total_pairs);
  const auto cache = server->cache_stats();
  EXPECT_EQ(cache.hits + cache.misses, cache.lookups);
  server.reset();  // destructor = drain shutdown; joins cleanly
}

TEST(ServingSoak, ShutdownDrainsEveryAcceptedRequest) {
  const Fixture f = make_fixture(nn::PredictorKind::kDot);
  const nn::ServingModel serving(*f.model, f.split.train_graph, f.dataset.features);
  ServingConfig config;
  config.batch_size = 4;
  config.batch_hook = [](std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  };
  ServingServer server(serving, config);
  util::Rng rng(31);
  std::vector<std::future<serving::ScoredReply>> futures;
  std::vector<std::vector<float>> expected;
  for (int i = 0; i < 12; ++i) {
    auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 3);
    expected.push_back(f.oracle_scores(pairs));
    futures.push_back(server.submit(std::move(pairs)));
  }
  server.shutdown();  // must fulfill all 12 futures first
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().scores, expected[i]);
  }
}

// ---------------------------------------------------------------------------
// Int8 accuracy gate: quantized serving vs f32 serving on a trained model.

TEST(ServingInt8, AccuracyGateAucWithinTolerance) {
  // Train a small dot-predictor model centrally so the AUC gate measures a
  // model with real signal rather than random weights.
  const auto dataset = data::make_dataset("cora", 0.03, 17);
  util::Rng split_rng = util::Rng(17).split("split");
  const auto split = sampling::split_edges(dataset.graph, {}, split_rng);
  core::TrainConfig train;
  train.method = core::Method::kCentralized;
  train.model.predictor = nn::PredictorKind::kDot;
  train.model.hidden_dim = 16;
  train.model.num_layers = 2;
  train.epochs = 4;
  train.batch_size = 128;
  train.seed = 17;
  const auto result = core::train_link_prediction(split, dataset.features, train);
  ASSERT_NE(result.model, nullptr);

  const nn::ServingModel f32(*result.model, split.train_graph, dataset.features);
  nn::ServingOptions int8_options;
  int8_options.int8_weights = true;
  int8_options.int8_embeddings = true;
  const nn::ServingModel int8(*result.model, split.train_graph, dataset.features,
                              int8_options);
  EXPECT_GT(int8.weight_error_bound(), 0.0F);
  EXPECT_EQ(int8.row_bytes(), f32.embedding_dim() + sizeof(float));
  EXPECT_EQ(f32.row_bytes(), f32.embedding_dim() * sizeof(float));

  std::vector<NodePair> positives;
  for (const auto& edge : split.test_pos) positives.push_back({edge.u, edge.v});
  const auto pos_f32 = f32.score_pairs(positives);
  const auto neg_f32 = f32.score_pairs(split.test_neg);
  const auto pos_int8 = int8.score_pairs(positives);
  const auto neg_int8 = int8.score_pairs(split.test_neg);

  const double auc_f32 = eval::auc(pos_f32, neg_f32);
  const double auc_int8 = eval::auc(pos_int8, neg_int8);
  EXPECT_GT(auc_f32, 0.5);  // the model actually learned something
  EXPECT_NEAR(auc_int8, auc_f32, 0.01);
}

TEST(ServingInt8, PerPairDotErrorStaysWithinAnalyticBound) {
  // int8_embeddings only (weights stay f32): both models compute identical
  // f32 embeddings, so the whole error is embedding quantization. For the
  // dot predictor the analytic per-pair bound (DESIGN.md §11) is
  //   |dot_int8 - dot_f32| <= dim * (amax_u * sv/2 + amax_v * su/2) + slop
  // with su = amax_u/127, sv = amax_v/127 the two row scales.
  const Fixture f = make_fixture(nn::PredictorKind::kDot, 23);
  const nn::ServingModel f32(*f.model, f.split.train_graph, f.dataset.features);
  nn::ServingOptions options;
  options.int8_embeddings = true;
  const nn::ServingModel int8(*f.model, f.split.train_graph, f.dataset.features, options);

  util::Rng rng(29);
  const auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 40);
  const auto exact = f32.score_pairs(pairs);
  const auto quantized = int8.score_pairs(pairs);
  const std::size_t dim = f32.embedding_dim();

  std::vector<float> u_row(dim);
  std::vector<float> v_row(dim);
  std::vector<std::byte> row(f32.row_bytes());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    f32.compute_row(pairs[i].u, row);
    f32.decode_row(row, u_row);
    f32.compute_row(pairs[i].v, row);
    f32.decode_row(row, v_row);
    const float amax_u = std::abs(*std::max_element(
        u_row.begin(), u_row.end(), [](float a, float b) { return std::abs(a) < std::abs(b); }));
    const float amax_v = std::abs(*std::max_element(
        v_row.begin(), v_row.end(), [](float a, float b) { return std::abs(a) < std::abs(b); }));
    const float su = amax_u / 127.0F;
    const float sv = amax_v / 127.0F;
    const float bound = static_cast<float>(dim) *
                            (amax_u * sv * 0.5F + amax_v * su * 0.5F) +
                        1e-4F;
    EXPECT_LE(std::abs(quantized[i] - exact[i]), bound) << "pair " << i;
  }
}

TEST(ServingInt8, WeightsOnQuantizationGridFreezeBitExactly) {
  // Snap every weight onto its own int8 grid {k * scale}; freezing with
  // int8_weights must then reproduce f32 scores bit-for-bit (mirrors
  // test_comm's integer-grid CommHook exactness).
  Fixture f = make_fixture(nn::PredictorKind::kMlp, 41);
  for (auto& parameter : f.model->parameters()) {
    auto& value = parameter.mutable_value();
    float amax = 0.0F;
    for (const float x : value.data()) amax = std::max(amax, std::abs(x));
    if (amax == 0.0F) continue;
    const float scale = amax / 127.0F;
    for (float& x : value.data()) {
      x = std::roundf(x / scale) * scale;
    }
  }
  const nn::ServingModel f32(*f.model, f.split.train_graph, f.dataset.features);
  nn::ServingOptions options;
  options.int8_weights = true;
  const nn::ServingModel int8(*f.model, f.split.train_graph, f.dataset.features, options);

  util::Rng rng(43);
  const auto pairs = random_pairs(rng, f.split.train_graph.num_nodes(), 21);
  const auto exact = f32.score_pairs(pairs);
  const auto frozen = int8.score_pairs(pairs);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(frozen[i], exact[i]) << "pair " << i;
  }
}

}  // namespace
}  // namespace splpg
