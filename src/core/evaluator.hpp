// Centralized link-prediction evaluation (the paper's protocol).
//
// Scores validation/test positives against their fixed global-uniform
// negative sets using the FULL training graph for message passing, then
// reports Hits@K (and AUC). Evaluation never touches worker views, so it
// adds nothing to the communication meters.
//
// One pass per call: score_pairs samples ONE computation graph over the
// deduplicated endpoints of all its pairs, encodes it once and scores every
// pair from its seed rows, so each layer's receptive field is computed once
// (O(L·|E|) in total) rather than once per batch of pairs. evaluate() scores
// the val/test positives and negatives in a single score_pairs call.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "eval/metrics.hpp"
#include "graph/features.hpp"
#include "nn/model.hpp"
#include "sampling/edge_split.hpp"
#include "util/thread_pool.hpp"

namespace splpg::core {

struct EvalResult {
  double val_hits = 0.0;
  double test_hits = 0.0;
  double val_auc = 0.0;
  double test_auc = 0.0;
  std::size_t k = 0;  // the K actually used
};

class Evaluator {
 public:
  /// `k = 0` selects K automatically as max(10, |negatives| / 30) — at the
  /// paper's scale (3x negatives, Hits@100) that matches roughly the top 3%
  /// threshold; at reduced synthetic scale it keeps the metric equally
  /// discriminative.
  ///
  /// `chunk_size` is the sampler's chunk: every `chunk_size` destinations of
  /// a layer draw their fanout picks from their own pre-split RNG stream.
  /// `num_threads != 1` runs those chunks and the row-blocked tensor kernels
  /// on an internal ThreadPool (0 = hardware concurrency); with 1, the
  /// caller's compute pool (tensor::ComputePoolScope) is used. Scores are
  /// bit-identical at every thread count.
  Evaluator(const sampling::LinkSplit& split, const graph::FeatureStore& features,
            std::vector<std::uint32_t> fanouts, std::size_t k = 0,
            std::size_t chunk_size = 512, std::uint64_t seed = 7,
            std::size_t num_threads = 1);

  /// Deterministic: the sampling rng is re-seeded per call.
  [[nodiscard]] EvalResult evaluate(const nn::LinkPredictionModel& model) const;

  /// Scores arbitrary node pairs with the model (exposed for examples).
  /// Deterministic in (seed, chunk_size, pairs). With all-zero fanouts a
  /// pair's score depends only on the pair, so splitting or joining calls
  /// never changes it; sampled fanouts draw one neighbour sample per node
  /// per layer per call, so there it depends on the call's other pairs.
  /// Throws std::out_of_range, naming the pair index, for a node id >=
  /// train_graph.num_nodes(). An empty list scores to an empty vector.
  [[nodiscard]] std::vector<float> score_pairs(const nn::LinkPredictionModel& model,
                                               std::span<const sampling::NodePair> pairs) const;

 private:
  const sampling::LinkSplit* split_;
  const graph::FeatureStore* features_;
  std::vector<std::uint32_t> fanouts_;
  std::size_t k_;
  std::size_t chunk_size_;
  std::uint64_t seed_;
  std::unique_ptr<util::ThreadPool> pool_;  // null = the caller's compute pool
};

}  // namespace splpg::core
