// Graph neural network layers operating on sampled Blocks (Eq. (1)).
//
// Every layer consumes `src_feats`, whose rows align with
// block.src_nodes, and produces embeddings for the block's dst prefix
// (rows 0..dst_count). Activations are applied by the model between layers,
// not inside the layers.
//
// Implementation notes relative to the reference formulations:
//  * GcnConv uses the weighted mean-with-self form
//      h_v = W^T * (h_v + sum_e w_e h_src(e)) / (1 + sum_e w_e)
//    which matches Kipf-Welling's D^-1(A+I) propagation on unweighted
//    blocks and respects the sparsifier's edge weights on weighted ones.
//  * SageConv is the mean-aggregator GraphSAGE:
//      h_v = W_self^T h_v + W_neigh^T mean_e(h_src(e)) + b.
//  * GatConv / Gatv2Conv are single-head with GAT's LeakyReLU slope 0.2; an
//    implicit self-edge per destination joins the attention softmax
//    (equivalent to DGL's add-self-loop convention).
#pragma once

#include <memory>
#include <string>

#include "nn/module.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/autograd.hpp"
#include "util/rng.hpp"

namespace splpg::nn {

class GnnLayer : public Module {
 public:
  /// `src_feats` rows align with block.src_nodes; returns dst_count rows.
  [[nodiscard]] virtual tensor::Tensor forward(const sampling::Block& block,
                                               const tensor::Tensor& src_feats) const = 0;

  [[nodiscard]] virtual std::size_t out_dim() const noexcept = 0;
};

class GcnConv final : public GnnLayer {
 public:
  GcnConv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng);

  [[nodiscard]] tensor::Tensor forward(const sampling::Block& block,
                                       const tensor::Tensor& src_feats) const override;
  [[nodiscard]] std::size_t out_dim() const noexcept override { return weight_.cols(); }

 private:
  tensor::Tensor weight_;
  tensor::Tensor bias_;
};

class SageConv final : public GnnLayer {
 public:
  SageConv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng);

  [[nodiscard]] tensor::Tensor forward(const sampling::Block& block,
                                       const tensor::Tensor& src_feats) const override;
  [[nodiscard]] std::size_t out_dim() const noexcept override { return weight_self_.cols(); }

 private:
  tensor::Tensor weight_self_;
  tensor::Tensor weight_neigh_;
  tensor::Tensor bias_;
};

class GatConv final : public GnnLayer {
 public:
  GatConv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng);

  [[nodiscard]] tensor::Tensor forward(const sampling::Block& block,
                                       const tensor::Tensor& src_feats) const override;
  [[nodiscard]] std::size_t out_dim() const noexcept override { return weight_.cols(); }

 private:
  tensor::Tensor weight_;
  tensor::Tensor attn_src_;  // out_dim x 1
  tensor::Tensor attn_dst_;  // out_dim x 1
  tensor::Tensor bias_;
};

/// GATv2 [Brody et al.]: the attention MLP applies the nonlinearity *before*
/// the attention vector, fixing GAT's static-attention limitation.
class Gatv2Conv final : public GnnLayer {
 public:
  Gatv2Conv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng);

  [[nodiscard]] tensor::Tensor forward(const sampling::Block& block,
                                       const tensor::Tensor& src_feats) const override;
  [[nodiscard]] std::size_t out_dim() const noexcept override { return weight_src_.cols(); }

 private:
  tensor::Tensor weight_src_;
  tensor::Tensor weight_dst_;
  tensor::Tensor attn_;  // out_dim x 1
  tensor::Tensor bias_;
};

enum class GnnKind { kGcn, kSage, kGat, kGatv2 };

[[nodiscard]] std::string to_string(GnnKind kind);

/// Factory for a single layer.
[[nodiscard]] std::unique_ptr<GnnLayer> make_gnn_layer(GnnKind kind, std::size_t in_dim,
                                                       std::size_t out_dim, util::Rng& rng);

}  // namespace splpg::nn
