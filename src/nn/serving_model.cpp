#include "nn/serving_model.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "tensor/int8.hpp"
#include "util/rng.hpp"

namespace splpg::nn {

using graph::NodeId;
using tensor::Matrix;

ServingModel::ServingModel(const LinkPredictionModel& source, const graph::CsrGraph& graph,
                           const graph::FeatureStore& features, ServingOptions options)
    : graph_(&graph), features_(&features),
      sampler_(std::vector<std::uint32_t>(source.config().num_layers, 0U)),
      options_(options) {
  if (source.config().in_dim != features.dim()) {
    throw std::invalid_argument("ServingModel: feature dim != model in_dim");
  }
  if (features.num_nodes() < graph.num_nodes()) {
    throw std::invalid_argument("ServingModel: feature store smaller than graph");
  }
  // Freeze: rebuild the architecture (seed irrelevant — weights are
  // overwritten) and snapshot the source parameters.
  model_ = std::make_unique<LinkPredictionModel>(source.config(), /*seed=*/0);
  copy_parameters(source, *model_);
  if (options_.int8_weights) {
    for (auto& parameter : model_->parameters()) {
      const float bound = tensor::quantize_dequantize_inplace(parameter.mutable_value());
      weight_error_bound_ = std::max(weight_error_bound_, bound);
    }
  }
}

std::size_t ServingModel::row_bytes() const noexcept {
  const std::size_t dim = embedding_dim();
  return options_.int8_embeddings ? dim + sizeof(float) : dim * sizeof(float);
}

void ServingModel::compute_row(NodeId v, std::span<std::byte> out) const {
  if (v >= graph_->num_nodes()) {
    throw std::out_of_range("ServingModel::compute_row: node id out of range");
  }
  if (out.size() != row_bytes()) {
    throw std::invalid_argument("ServingModel::compute_row: bad row buffer size");
  }
  // Full-neighborhood expansion draws no fanout picks, so this stream
  // never reaches the row.
  util::Rng rng = util::Rng(7).split("serve", v);
  sampling::GraphProvider provider(*graph_);
  const NodeId seeds[1] = {v};
  const auto cg = sampler_.sample(provider, seeds, rng);
  const auto embedding = model_->encode(cg, *features_);
  const auto row = embedding.value().row(0);

  if (options_.int8_embeddings) {
    auto* payload = reinterpret_cast<std::int8_t*>(out.data());
    const float scale = tensor::quantize_span(row, {payload, row.size()});
    std::memcpy(out.data() + row.size(), &scale, sizeof(float));
  } else {
    std::memcpy(out.data(), row.data(), row.size() * sizeof(float));
  }
}

void ServingModel::decode_row(std::span<const std::byte> row, std::span<float> out) const {
  const std::size_t dim = embedding_dim();
  if (row.size() != row_bytes() || out.size() != dim) {
    throw std::invalid_argument("ServingModel::decode_row: bad buffer size");
  }
  if (options_.int8_embeddings) {
    const auto* payload = reinterpret_cast<const std::int8_t*>(row.data());
    float scale = 0.0F;
    std::memcpy(&scale, row.data() + dim, sizeof(float));
    tensor::dequantize_span({payload, dim}, scale, out);
  } else {
    std::memcpy(out.data(), row.data(), dim * sizeof(float));
  }
}

std::vector<float> ServingModel::score_rows(std::span<const std::byte* const> u_rows,
                                            std::span<const std::byte* const> v_rows) const {
  if (u_rows.size() != v_rows.size()) {
    throw std::invalid_argument("ServingModel::score_rows: endpoint count mismatch");
  }
  const std::size_t count = u_rows.size();
  const std::size_t dim = embedding_dim();
  std::vector<float> scores(count);
  if (count == 0) return scores;

  if (options_.int8_embeddings && config().predictor == PredictorKind::kDot) {
    // Int8 fast path: dot straight off the quantized payloads, one float
    // rounding per pair (tensor/int8 scoring kernel).
    for (std::size_t i = 0; i < count; ++i) {
      const auto* qu = reinterpret_cast<const std::int8_t*>(u_rows[i]);
      const auto* qv = reinterpret_cast<const std::int8_t*>(v_rows[i]);
      float scale_u = 0.0F;
      float scale_v = 0.0F;
      std::memcpy(&scale_u, u_rows[i] + dim, sizeof(float));
      std::memcpy(&scale_v, v_rows[i] + dim, sizeof(float));
      scores[i] = tensor::score_dot_i8({qu, dim}, scale_u, {qv, dim}, scale_v);
    }
    return scores;
  }

  // Decode rows into a 2B x dim embedding matrix (u at row 2i, v at 2i+1)
  // and run the frozen predictor. Every predictor op is row-independent, so
  // scores[i] is a function of rows 2i / 2i+1 only.
  Matrix embeddings(2 * count, dim);
  std::vector<PairIndex> pairs(count);
  for (std::size_t i = 0; i < count; ++i) {
    decode_row({u_rows[i], row_bytes()}, embeddings.row(2 * i));
    decode_row({v_rows[i], row_bytes()}, embeddings.row(2 * i + 1));
    pairs[i] = {static_cast<std::uint32_t>(2 * i), static_cast<std::uint32_t>(2 * i + 1)};
  }
  const auto logits = model_->score(tensor::Tensor::constant(std::move(embeddings)), pairs);
  for (std::size_t i = 0; i < count; ++i) scores[i] = logits.value().at(i, 0);
  return scores;
}

std::vector<float> ServingModel::score_pairs(std::span<const sampling::NodePair> pairs) const {
  const std::size_t bytes = row_bytes();
  std::vector<std::byte> rows(2 * pairs.size() * bytes);
  std::vector<const std::byte*> u_rows(pairs.size());
  std::vector<const std::byte*> v_rows(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::byte* u_row = rows.data() + (2 * i) * bytes;
    std::byte* v_row = rows.data() + (2 * i + 1) * bytes;
    compute_row(pairs[i].u, {u_row, bytes});
    compute_row(pairs[i].v, {v_row, bytes});
    u_rows[i] = u_row;
    v_rows[i] = v_row;
  }
  return score_rows(u_rows, v_rows);
}

}  // namespace splpg::nn
