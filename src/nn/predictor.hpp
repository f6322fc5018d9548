// Edge predictors (Eq. (2)): map a pair of node embeddings to an edge score.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "tensor/autograd.hpp"

namespace splpg::nn {

/// Index pair into an embedding matrix (rows).
struct PairIndex {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
};

class EdgePredictor : public Module {
 public:
  /// Returns logits (N x 1) for the N pairs.
  [[nodiscard]] virtual tensor::Tensor score(const tensor::Tensor& embeddings,
                                             std::span<const PairIndex> pairs) const = 0;
};

/// s(u,v) = h_u . h_v.
class DotPredictor final : public EdgePredictor {
 public:
  [[nodiscard]] tensor::Tensor score(const tensor::Tensor& embeddings,
                                     std::span<const PairIndex> pairs) const override;
};

/// s(u,v) = MLP([h_u | h_v]); the paper uses a 3-layer MLP.
class MlpPredictor final : public EdgePredictor {
 public:
  MlpPredictor(std::size_t embedding_dim, std::size_t hidden_dim, std::uint32_t num_layers,
               util::Rng& rng);

  [[nodiscard]] tensor::Tensor score(const tensor::Tensor& embeddings,
                                     std::span<const PairIndex> pairs) const override;

 private:
  std::unique_ptr<Mlp> mlp_;
};

enum class PredictorKind { kDot, kMlp };

[[nodiscard]] std::string to_string(PredictorKind kind);

[[nodiscard]] std::unique_ptr<EdgePredictor> make_predictor(PredictorKind kind,
                                                            std::size_t embedding_dim,
                                                            std::size_t hidden_dim,
                                                            std::uint32_t num_layers,
                                                            util::Rng& rng);

}  // namespace splpg::nn
