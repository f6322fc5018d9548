// The complete link-prediction model: K-layer GNN encoder + edge predictor
// (Figure 2's "GNN model" + "Edge predictor" boxes).
//
// Construction is deterministic in (config, seed): every distributed worker
// builds its replica with the same seed, so initial weights are identical
// across workers ("initialize model weights W and copy them to each worker",
// Algorithm 1 line 16).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/features.hpp"
#include "nn/gnn_layers.hpp"
#include "nn/predictor.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace splpg::nn {

struct ModelConfig {
  GnnKind gnn = GnnKind::kSage;
  PredictorKind predictor = PredictorKind::kMlp;
  std::size_t in_dim = 0;              // input feature dimension (required)
  std::size_t hidden_dim = 256;        // paper default
  std::uint32_t num_layers = 3;        // paper default (3-layer GNN)
  std::uint32_t predictor_layers = 3;  // paper default (3-layer MLP)
};

class LinkPredictionModel : public Module {
 public:
  LinkPredictionModel(const ModelConfig& config, std::uint64_t seed);

  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }

  /// Runs the encoder over the computational graph. `input_features` rows
  /// must align with cg.input_nodes() and it must have in_dim columns
  /// (std::invalid_argument otherwise); returns embeddings whose rows align
  /// with cg.seed_nodes().
  [[nodiscard]] tensor::Tensor encode(const sampling::ComputationGraph& cg,
                                      tensor::Matrix input_features) const;

  /// Gathers input features for cg.input_nodes() from a global store and
  /// encodes.
  [[nodiscard]] tensor::Tensor encode(const sampling::ComputationGraph& cg,
                                      const graph::FeatureStore& features) const;

  /// Runs GNN layer `k` (0 = input-most) over `block`, followed by the ReLU
  /// when k is not the last layer. `h` rows align with block.src_nodes; the
  /// result's rows align with block.dst_nodes(). encode() is this call for
  /// k = 0..L-1; the serving model also starts the loop at k = 1.
  [[nodiscard]] tensor::Tensor forward_layer(std::size_t k, const sampling::Block& block,
                                             const tensor::Tensor& h) const;

  /// Edge logits for index pairs into the seed-embedding rows.
  [[nodiscard]] tensor::Tensor score(const tensor::Tensor& seed_embeddings,
                                     std::span<const PairIndex> pairs) const;

  /// Per-layer neighbor fanouts: the paper's 25/10/5 for GraphSAGE-style
  /// sampled aggregation; full neighborhoods (all zeros) for GCN/GAT/GATv2.
  [[nodiscard]] std::vector<std::uint32_t> default_fanouts() const;

 private:
  ModelConfig config_;
  std::vector<std::unique_ptr<GnnLayer>> layers_;
  std::unique_ptr<EdgePredictor> predictor_;
};

/// In-place, same-shape parameter copy: dst_i <- src_i. Used by model
/// averaging and by tests that clone replicas.
void copy_parameters(const Module& source, Module& destination);

}  // namespace splpg::nn
