#include "nn/predictor.hpp"

#include <stdexcept>
#include <vector>

namespace splpg::nn {

using tensor::Tensor;

namespace {

std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>> split_pairs(
    std::span<const PairIndex> pairs) {
  std::vector<std::uint32_t> u;
  std::vector<std::uint32_t> v;
  u.reserve(pairs.size());
  v.reserve(pairs.size());
  for (const auto& pair : pairs) {
    u.push_back(pair.u);
    v.push_back(pair.v);
  }
  return {std::move(u), std::move(v)};
}

}  // namespace

Tensor DotPredictor::score(const Tensor& embeddings, std::span<const PairIndex> pairs) const {
  const auto [u, v] = split_pairs(pairs);
  return rowwise_dot(gather_rows(embeddings, u), gather_rows(embeddings, v));
}

MlpPredictor::MlpPredictor(std::size_t embedding_dim, std::size_t hidden_dim,
                           std::uint32_t num_layers, util::Rng& rng) {
  if (num_layers < 1) throw std::invalid_argument("MlpPredictor: need >= 1 layer");
  std::vector<std::size_t> dims;
  dims.push_back(2 * embedding_dim);
  for (std::uint32_t i = 0; i + 1 < num_layers; ++i) dims.push_back(hidden_dim);
  dims.push_back(1);
  mlp_ = std::make_unique<Mlp>(dims, rng);
  register_module(*mlp_);
}

Tensor MlpPredictor::score(const Tensor& embeddings, std::span<const PairIndex> pairs) const {
  const auto [u, v] = split_pairs(pairs);
  const Tensor joined = concat_cols(gather_rows(embeddings, u), gather_rows(embeddings, v));
  return mlp_->forward(joined);
}

std::string to_string(PredictorKind kind) {
  return kind == PredictorKind::kDot ? "dot" : "mlp";
}

std::unique_ptr<EdgePredictor> make_predictor(PredictorKind kind, std::size_t embedding_dim,
                                              std::size_t hidden_dim, std::uint32_t num_layers,
                                              util::Rng& rng) {
  if (kind == PredictorKind::kDot) return std::make_unique<DotPredictor>();
  return std::make_unique<MlpPredictor>(embedding_dim, hidden_dim, num_layers, rng);
}

}  // namespace splpg::nn
