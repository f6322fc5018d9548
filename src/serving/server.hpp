// Batched online link-prediction server.
//
// Clients submit() vectors of node pairs and get a future per request. All
// requests flow through one util::BoundedQueue into a single scorer thread
// that coalesces pairs FIFO across concurrent requests into fixed-size
// scoring batches: per batch it resolves each distinct node's embedding row
// through the EmbeddingCache (miss = ServingModel::compute_row, which runs
// the exact full-neighborhood encode from the model's first-layer table,
// then insert) and scores all pairs in one ServingModel::score_rows call.
//
// Delivery contract (the serving soak test's assertions):
//   * no response is lost or duplicated — every accepted submit()'s future
//     is fulfilled exactly once;
//   * an exception while scoring a batch (std::bad_alloc, a throwing
//     batch_hook) is set on the future of every request with a pair in that
//     batch; the scorer keeps serving the requests behind them;
//   * per-client in-order delivery — pairs enter batches in request FIFO
//     order and batches complete in order, so one client's requests finish
//     in its submission order (ScoredReply::sequence is the server-wide
//     completion number: per client it is strictly increasing);
//   * shutdown() drains — it stops new submits, then scores every request
//     already accepted before joining the scorer. submit() after shutdown
//     throws.
//
// Determinism contract (DESIGN.md §11): the scores a seeded request trace
// receives are bit-identical regardless of cache capacity, batch size,
// client thread count, and queue capacity, because each pair's score is a
// pure function of (frozen model, graph, features, pair) — equal, for the
// f32 model, to core::Evaluator::score_pairs with all-zero fanouts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "nn/serving_model.hpp"
#include "sampling/edge_split.hpp"
#include "serving/embedding_cache.hpp"
#include "util/bounded_queue.hpp"

namespace splpg::serving {

struct ServingConfig {
  /// Max pairs per scoring batch (coalesced FIFO across requests).
  std::size_t batch_size = 64;
  /// Bounded request-queue capacity (backpressure: submit blocks when full).
  std::size_t queue_capacity = 256;
  /// EmbeddingCache capacity in entries; 0 disables caching (passthrough),
  /// SIZE_MAX (the default) never evicts.
  std::size_t cache_capacity = std::numeric_limits<std::size_t>::max();
  /// Test instrumentation: called on the scorer thread with the running
  /// batch index just before each batch is scored (latency/straggler
  /// injection in the soak test). An exception it throws fails that batch's
  /// requests, like any other error while scoring a batch.
  std::function<void(std::uint64_t batch_index)> batch_hook;
};

/// One request's response: scores parallel to the submitted pairs, plus the
/// server-wide completion sequence number (1-based; strictly increasing in
/// completion order, hence strictly increasing per client).
struct ScoredReply {
  std::vector<float> scores;
  std::uint64_t sequence = 0;
};

struct ServingStats {
  std::uint64_t requests = 0;  ///< requests completed
  std::uint64_t pairs = 0;     ///< pairs scored
  std::uint64_t batches = 0;   ///< scoring batches executed
};

class ServingServer {
 public:
  /// `model` must outlive the server.
  explicit ServingServer(const nn::ServingModel& model, ServingConfig config = {});
  ~ServingServer();

  ServingServer(const ServingServer&) = delete;
  ServingServer& operator=(const ServingServer&) = delete;

  /// Enqueues a request (blocking while the queue is full) and returns its
  /// future. Validates node ids up front (std::out_of_range). Throws
  /// std::runtime_error after shutdown().
  [[nodiscard]] std::future<ScoredReply> submit(std::vector<sampling::NodePair> pairs);

  /// Synchronous convenience: submit + wait.
  [[nodiscard]] ScoredReply score_pairs(std::span<const sampling::NodePair> pairs);

  /// Stops accepting, scores every already-accepted request, joins the
  /// scorer. Idempotent; called by the destructor.
  void shutdown();

  /// Drops every cache entry (mid-flight invalidation; scores are
  /// unaffected by construction). Soak-test instrumentation.
  void clear_cache();

  [[nodiscard]] EmbeddingCache::Stats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] ServingStats stats() const;

 private:
  struct Request {
    std::vector<sampling::NodePair> pairs;
    std::promise<ScoredReply> promise;
  };

  void scorer_loop_();

  const nn::ServingModel* model_;
  ServingConfig config_;
  EmbeddingCache cache_;
  util::BoundedQueue<Request> queue_;
  std::atomic<bool> accepting_{true};
  mutable std::mutex stats_mutex_;
  ServingStats stats_;
  std::thread scorer_;  // last member: starts after everything it reads
};

}  // namespace splpg::serving
