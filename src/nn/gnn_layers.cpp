#include "nn/gnn_layers.hpp"

#include <numeric>
#include <stdexcept>

#include "tensor/init.hpp"

namespace splpg::nn {

using sampling::Block;
using tensor::Matrix;
using tensor::Tensor;

namespace {

/// LeakyReLU slope of the GAT/GATv2 attention scores (the GAT paper's 0.2).
constexpr float kNegativeSlope = 0.2F;

/// Indices [0, dst_count) — the dst prefix of src_nodes (GCN's self rows).
std::vector<std::uint32_t> dst_prefix_indices(const Block& block) {
  std::vector<std::uint32_t> idx(block.dst_count);
  std::iota(idx.begin(), idx.end(), 0U);
  return idx;
}

/// Edge index arrays extended with one implicit self-edge per destination
/// (dst d is src_nodes[d], so the self source index is d itself).
struct SelfLoopEdges {
  std::vector<std::uint32_t> src;
  std::vector<std::uint32_t> dst;
};

SelfLoopEdges with_self_loops(const Block& block) {
  SelfLoopEdges out;
  out.src.reserve(block.num_edges() + block.dst_count);
  out.dst.reserve(block.num_edges() + block.dst_count);
  out.src.assign(block.edge_src.begin(), block.edge_src.end());
  out.dst.assign(block.edge_dst.begin(), block.edge_dst.end());
  for (std::uint32_t d = 0; d < block.dst_count; ++d) {
    out.src.push_back(d);
    out.dst.push_back(d);
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- GcnConv --

GcnConv::GcnConv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng) {
  weight_ = register_parameter(tensor::xavier_uniform(in_dim, out_dim, rng));
  bias_ = register_parameter(tensor::zeros(1, out_dim));
}

Tensor GcnConv::forward(const Block& block, const Tensor& src_feats) const {
  // Weighted sum of neighbors, plus self, divided by (1 + total weight).
  const Tensor coef = Tensor::constant(
      Matrix(block.num_edges(), 1, std::vector<float>(block.edge_weight)));
  const Tensor agg = spmm_edges(src_feats, coef, block.edge_src, block.edge_dst,
                                block.dst_count);
  const Tensor self = gather_rows(src_feats, dst_prefix_indices(block));

  Matrix norm(block.dst_count, 1, 0.0F);
  for (std::size_t e = 0; e < block.num_edges(); ++e) {
    norm.at(block.edge_dst[e], 0) += block.edge_weight[e];
  }
  for (std::size_t d = 0; d < block.dst_count; ++d) {
    norm.at(d, 0) = 1.0F / (1.0F + norm.at(d, 0));
  }
  const Tensor mean = mul(add(agg, self), Tensor::constant(std::move(norm)));
  return add(matmul(mean, weight_), bias_);
}

// --------------------------------------------------------------- SageConv --

SageConv::SageConv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng) {
  weight_self_ = register_parameter(tensor::xavier_uniform(in_dim, out_dim, rng));
  weight_neigh_ = register_parameter(tensor::xavier_uniform(in_dim, out_dim, rng));
  bias_ = register_parameter(tensor::zeros(1, out_dim));
}

Tensor SageConv::forward(const Block& block, const Tensor& src_feats) const {
  // Weighted mean over sampled neighbors (all-ones weights = plain mean).
  Matrix total(block.dst_count, 1, 0.0F);
  for (std::size_t e = 0; e < block.num_edges(); ++e) {
    total.at(block.edge_dst[e], 0) += block.edge_weight[e];
  }
  Matrix coef_values(block.num_edges(), 1);
  for (std::size_t e = 0; e < block.num_edges(); ++e) {
    const float denom = total.at(block.edge_dst[e], 0);
    coef_values.at(e, 0) = denom > 0.0F ? block.edge_weight[e] / denom : 0.0F;
  }
  const Tensor mean = spmm_edges(src_feats, Tensor::constant(std::move(coef_values)),
                                 block.edge_src, block.edge_dst, block.dst_count);
  // The destinations are the first dst_count rows of src_feats, so the self
  // term multiplies them in place.
  const Tensor self = matmul_prefix(src_feats, block.dst_count, weight_self_);
  return add(add(self, matmul(mean, weight_neigh_)), bias_);
}

// ---------------------------------------------------------------- GatConv --

GatConv::GatConv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng) {
  weight_ = register_parameter(tensor::xavier_uniform(in_dim, out_dim, rng));
  attn_src_ = register_parameter(tensor::xavier_uniform(out_dim, 1, rng));
  attn_dst_ = register_parameter(tensor::xavier_uniform(out_dim, 1, rng));
  bias_ = register_parameter(tensor::zeros(1, out_dim));
}

Tensor GatConv::forward(const Block& block, const Tensor& src_feats) const {
  const Tensor z = matmul(src_feats, weight_);  // S x out
  const SelfLoopEdges edges = with_self_loops(block);
  const Tensor score_src = matmul(z, attn_src_);  // S x 1
  const Tensor score_dst = matmul(z, attn_dst_);  // S x 1 (dst prefix used)
  const Tensor e_scores = leaky_relu(
      add(gather_rows(score_src, edges.src), gather_rows(score_dst, edges.dst)),
      kNegativeSlope);
  const Tensor att = segment_softmax(e_scores, edges.dst, block.dst_count);
  return add(spmm_edges(z, att, edges.src, edges.dst, block.dst_count), bias_);
}

// -------------------------------------------------------------- Gatv2Conv --

Gatv2Conv::Gatv2Conv(std::size_t in_dim, std::size_t out_dim, util::Rng& rng) {
  weight_src_ = register_parameter(tensor::xavier_uniform(in_dim, out_dim, rng));
  weight_dst_ = register_parameter(tensor::xavier_uniform(in_dim, out_dim, rng));
  attn_ = register_parameter(tensor::xavier_uniform(out_dim, 1, rng));
  bias_ = register_parameter(tensor::zeros(1, out_dim));
}

Tensor Gatv2Conv::forward(const Block& block, const Tensor& src_feats) const {
  const Tensor z_src = matmul(src_feats, weight_src_);  // S x out
  const Tensor z_dst = matmul(src_feats, weight_dst_);  // S x out

  const SelfLoopEdges edges = with_self_loops(block);
  // Per edge: e = a^T LeakyReLU(W_src h_u + W_dst h_v).
  const Tensor pre = leaky_relu(
      add(gather_rows(z_src, edges.src), gather_rows(z_dst, edges.dst)), kNegativeSlope);
  const Tensor e_scores = matmul(pre, attn_);
  const Tensor att = segment_softmax(e_scores, edges.dst, block.dst_count);
  return add(spmm_edges(z_src, att, edges.src, edges.dst, block.dst_count), bias_);
}

// ---------------------------------------------------------------- factory --

std::string to_string(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn: return "gcn";
    case GnnKind::kSage: return "graphsage";
    case GnnKind::kGat: return "gat";
    case GnnKind::kGatv2: return "gatv2";
  }
  return "unknown";
}

std::unique_ptr<GnnLayer> make_gnn_layer(GnnKind kind, std::size_t in_dim, std::size_t out_dim,
                                         util::Rng& rng) {
  switch (kind) {
    case GnnKind::kGcn: return std::make_unique<GcnConv>(in_dim, out_dim, rng);
    case GnnKind::kSage: return std::make_unique<SageConv>(in_dim, out_dim, rng);
    case GnnKind::kGat: return std::make_unique<GatConv>(in_dim, out_dim, rng);
    case GnnKind::kGatv2: return std::make_unique<Gatv2Conv>(in_dim, out_dim, rng);
  }
  throw std::invalid_argument("unknown GNN kind");
}

}  // namespace splpg::nn
