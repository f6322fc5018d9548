// Frozen link-prediction model for the online serving layer.
//
// A ServingModel snapshots a trained LinkPredictionModel's weights (the
// trainer may keep mutating its replicas afterwards) and answers
// link-prediction queries with EXACT full-neighborhood message passing:
// every layer consumes a node's complete neighborhood, never a sampled one.
// That choice is what makes serving cacheable and deterministic —
//
//   * a node's embedding is a pure function of (frozen weights, train
//     graph, features, node id): no RNG stream, no batch context, so a
//     cached row and a recomputed row are byte-identical;
//   * every tensor op on the inference path (gather, GEMM, relu, bias
//     broadcast, per-destination aggregation/softmax, rowwise dot) produces
//     each output row from exactly its input row(s), so a pair's score does
//     not depend on which other pairs share its scoring batch — the serving
//     stack can coalesce requests freely;
//   * the same holds for core::Evaluator::score_pairs when its fanouts are
//     all zero, which is the oracle the serving test battery replays seeded
//     request traces against (bit-identity across every cache size x batch
//     size x client count x SPLPG_VEC pin).
//
// Because a first-layer row is itself a pure function of the node, the miss
// path (compute_row) keeps a table of them: num_nodes x hidden_dim floats
// plus one flag per node, allocated on the first miss and filled on first
// use. A miss expands only the node's (L-1)-hop graph, runs layer 1 for the
// nodes of that graph the table lacks, and runs layers 2..L from table
// rows. The rows are bit-identical to the ones a full L-hop encode computes
// under the same SPLPG_VEC backend, so the table is reset whenever the
// active backend changes. score_pairs keeps the full per-node encode and
// is the table-free reference. With one layer the first layer is the
// output, so compute_row encodes in full (the LRU is the only row cache).
//
// Int8 inference (per-tensor symmetric quantization, tensor/int8 — the same
// arithmetic as the PR-9 CommHook) is opt-in per tensor class:
//   * int8_weights: every frozen weight matrix round-trips through int8 at
//     freeze time; per-entry error <= amax / 254 per tensor. Weights
//     already on their quantization grid freeze bit-exactly.
//   * int8_embeddings: cache rows are stored as the 1-byte-per-value +
//     4-byte-scale wire format (4x smaller); per-entry dequantization error
//     <= amax_row / 254. The dot predictor then scores straight off the
//     int8 payloads via tensor::score_dot_i8.
// The int8 path is exempt from the bitwise contract but bounded: per
// quantized tensor, error <= amax / 254 per entry (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/features.hpp"
#include "nn/model.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/vec.hpp"

namespace splpg::nn {

struct ServingOptions {
  /// Round-trip every frozen weight matrix through per-tensor symmetric
  /// int8 at freeze time (error <= amax / 254 per entry, per tensor).
  bool int8_weights = false;
  /// Store cache rows as int8 payload + f32 scale (dim + 4 bytes instead of
  /// 4 * dim); dequantization error <= amax_row / 254 per entry.
  bool int8_embeddings = false;
};

class ServingModel {
 public:
  /// Freezes `source`'s weights over the given message-passing graph and
  /// feature store (both must outlive the ServingModel; features.dim() must
  /// match the model's in_dim).
  ServingModel(const LinkPredictionModel& source, const graph::CsrGraph& graph,
               const graph::FeatureStore& features, ServingOptions options = {});

  [[nodiscard]] const ModelConfig& config() const noexcept { return model_->config(); }
  [[nodiscard]] const ServingOptions& options() const noexcept { return options_; }
  [[nodiscard]] graph::NodeId num_nodes() const noexcept { return graph_->num_nodes(); }
  [[nodiscard]] std::size_t embedding_dim() const noexcept {
    return model_->config().hidden_dim;
  }

  /// Cache-row footprint in bytes: 4 * dim (f32) or dim + 4 (int8 payload
  /// followed by the f32 scale — the PR-9 wire format).
  [[nodiscard]] std::size_t row_bytes() const noexcept;

  /// Max per-tensor weight round-trip error bound amax / 254 across all
  /// frozen tensors (0 when int8_weights is off).
  [[nodiscard]] float weight_error_bound() const noexcept { return weight_error_bound_; }

  /// Computes node `v`'s embedding by exact L-hop full-neighborhood message
  /// passing and encodes it into the cache-row format, taking first-layer
  /// rows from the table where an earlier call computed them. Pure function
  /// of (frozen state, v); thread-safe const. Throws std::out_of_range for a
  /// node id outside the graph.
  void compute_row(graph::NodeId v, std::span<std::byte> out) const;

  /// Decodes one cache row to f32 (memcpy in f32 mode; dequantize in int8
  /// mode). `out` must hold embedding_dim() floats.
  void decode_row(std::span<const std::byte> row, std::span<float> out) const;

  /// Scores pairs[i] = (u_rows[i], v_rows[i]) given their cache rows. Each
  /// score depends only on its own two rows — batch composition is
  /// unobservable. In int8 mode with the dot predictor, scoring runs
  /// directly on the int8 payloads (tensor::score_dot_i8); every other
  /// combination decodes rows and runs the frozen f32 predictor.
  [[nodiscard]] std::vector<float> score_rows(std::span<const std::byte* const> u_rows,
                                              std::span<const std::byte* const> v_rows) const;

  /// Compute + score in one call with a full L-hop encode per endpoint: no
  /// cache, no first-layer table (bench baselines, tests, perfbench's
  /// served-versus-uncached check).
  [[nodiscard]] std::vector<float> score_pairs(
      std::span<const sampling::NodePair> pairs) const;

 private:
  /// First-layer rows (after the ReLU) of every node the table has seen.
  struct FirstLayerTable {
    tensor::VecBackend backend = tensor::VecBackend::kScalar;  // that filled it
    std::vector<float> rows;           // num_nodes x hidden_dim; empty until first use
    std::vector<std::uint8_t> filled;  // one flag per node
  };

  /// The full L-hop encode of `v`, as a cache row.
  void encode_row(graph::NodeId v, std::span<std::byte> out) const;
  /// Rows of `nodes` from the first-layer table, computing the missing ones.
  [[nodiscard]] tensor::Matrix first_layer_rows(std::span<const graph::NodeId> nodes) const;
  /// Writes embedding `row` in the cache-row format.
  void write_row(std::span<const float> row, std::span<std::byte> out) const;

  std::unique_ptr<LinkPredictionModel> model_;  // frozen weight snapshot
  const graph::CsrGraph* graph_;
  const graph::FeatureStore* features_;
  ServingOptions options_;
  float weight_error_bound_ = 0.0F;
  mutable std::mutex table_mutex_;
  mutable FirstLayerTable table_;  // guarded by table_mutex_
};

}  // namespace splpg::nn
