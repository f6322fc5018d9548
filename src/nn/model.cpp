#include "nn/model.hpp"

#include <stdexcept>
#include <string>

namespace splpg::nn {

using sampling::ComputationGraph;
using tensor::Matrix;
using tensor::Tensor;

LinkPredictionModel::LinkPredictionModel(const ModelConfig& config, std::uint64_t seed)
    : config_(config) {
  if (config.in_dim == 0) throw std::invalid_argument("model: in_dim is required");
  if (config.num_layers == 0) throw std::invalid_argument("model: need >= 1 GNN layer");

  util::Rng rng = util::Rng(seed).split("model");
  layers_.reserve(config.num_layers);
  std::size_t in_dim = config.in_dim;
  for (std::uint32_t k = 0; k < config.num_layers; ++k) {
    layers_.push_back(make_gnn_layer(config.gnn, in_dim, config.hidden_dim, rng));
    in_dim = config.hidden_dim;
    register_module(*layers_.back());
  }
  predictor_ = make_predictor(config.predictor, config.hidden_dim, config.hidden_dim,
                              config.predictor_layers, rng);
  register_module(*predictor_);
}

Tensor LinkPredictionModel::encode(const ComputationGraph& cg, Matrix input_features) const {
  if (cg.blocks.size() != layers_.size()) {
    throw std::invalid_argument("encode: computational graph depth != model depth");
  }
  if (input_features.rows() != cg.input_nodes().size()) {
    throw std::invalid_argument("encode: input feature rows != input nodes");
  }
  if (input_features.cols() != config_.in_dim) {
    throw std::invalid_argument("encode: input feature columns (" +
                                std::to_string(input_features.cols()) + ") != model in_dim (" +
                                std::to_string(config_.in_dim) + ")");
  }
  Tensor h = Tensor::constant(std::move(input_features));
  for (std::size_t k = 0; k < layers_.size(); ++k) h = forward_layer(k, cg.blocks[k], h);
  return h;
}

Tensor LinkPredictionModel::forward_layer(std::size_t k, const sampling::Block& block,
                                          const Tensor& h) const {
  const Tensor out = layers_.at(k)->forward(block, h);
  return k + 1 < layers_.size() ? relu(out) : out;
}

Tensor LinkPredictionModel::encode(const ComputationGraph& cg,
                                   const graph::FeatureStore& features) const {
  const auto inputs = cg.input_nodes();
  Matrix input_features(inputs.size(), features.dim());
  features.gather_into(inputs, input_features.data());
  return encode(cg, std::move(input_features));
}

Tensor LinkPredictionModel::score(const Tensor& seed_embeddings,
                                  std::span<const PairIndex> pairs) const {
  return predictor_->score(seed_embeddings, pairs);
}

std::vector<std::uint32_t> LinkPredictionModel::default_fanouts() const {
  if (config_.gnn == GnnKind::kSage) {
    // Paper §V-A: 25/10/5 nodes from the first/second/third hop. Block 0 is
    // the input-most (deepest hop) layer.
    std::vector<std::uint32_t> fanouts(config_.num_layers, 10);
    if (config_.num_layers >= 1) fanouts[config_.num_layers - 1] = 25;
    if (config_.num_layers >= 3) fanouts[0] = 5;
    return fanouts;
  }
  return std::vector<std::uint32_t>(config_.num_layers, 0);  // full neighborhood
}

void copy_parameters(const Module& source, Module& destination) {
  const auto& src = source.parameters();
  auto& dst = destination.parameters();
  if (src.size() != dst.size()) throw std::invalid_argument("copy_parameters: arity mismatch");
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (!dst[i].value().same_shape(src[i].value())) {
      throw std::invalid_argument("copy_parameters: shape mismatch");
    }
    dst[i].mutable_value() = src[i].value();
  }
}

}  // namespace splpg::nn
