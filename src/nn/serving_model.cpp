#include "nn/serving_model.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sampling/neighbor_sampler.hpp"
#include "tensor/int8.hpp"
#include "util/rng.hpp"

namespace splpg::nn {

using graph::NodeId;
using tensor::Matrix;
using tensor::Tensor;

namespace {

/// Full-neighborhood (all-zero fanout) expansion of `seeds` over `hops`
/// layers. It draws no fanout picks, so the stream never reaches a row.
sampling::ComputationGraph full_neighborhood(const graph::CsrGraph& graph,
                                             std::span<const NodeId> seeds, std::size_t hops) {
  util::Rng rng(7);
  sampling::GraphProvider provider(graph);
  return sampling::NeighborSampler(std::vector<std::uint32_t>(hops, 0U))
      .sample(provider, seeds, rng);
}

void check_row_request(NodeId v, NodeId num_nodes, std::size_t got, std::size_t want) {
  if (v >= num_nodes) {
    throw std::out_of_range("ServingModel::compute_row: node id out of range");
  }
  if (got != want) throw std::invalid_argument("ServingModel::compute_row: bad row buffer size");
}

}  // namespace

ServingModel::ServingModel(const LinkPredictionModel& source, const graph::CsrGraph& graph,
                           const graph::FeatureStore& features, ServingOptions options)
    : graph_(&graph), features_(&features), options_(options) {
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
  check_row_request(v, num_nodes(), out.size(), row_bytes());
  const std::size_t layers = config().num_layers;
  if (layers == 1) {
    encode_row(v, out);
    return;
  }
  // Layers 2..L over v's (L-1)-hop graph, whose input nodes are exactly the
  // nodes layer 1 produces rows for in v's full L-hop graph.
  const NodeId seeds[1] = {v};
  const auto upper = full_neighborhood(*graph_, seeds, layers - 1);
  Tensor h = Tensor::constant(first_layer_rows(upper.input_nodes()));
  for (std::size_t k = 0; k < upper.blocks.size(); ++k) {
    h = model_->forward_layer(k + 1, upper.blocks[k], h);
  }
  write_row(h.value().row(0), out);
}

void ServingModel::encode_row(NodeId v, std::span<std::byte> out) const {
  check_row_request(v, num_nodes(), out.size(), row_bytes());
  const NodeId seeds[1] = {v};
  const auto embedding =
      model_->encode(full_neighborhood(*graph_, seeds, config().num_layers), *features_);
  write_row(embedding.value().row(0), out);
}

Matrix ServingModel::first_layer_rows(std::span<const NodeId> nodes) const {
  const std::size_t dim = embedding_dim();
  const std::lock_guard<std::mutex> lock(table_mutex_);
  // A row's bits are exact per backend only, so a backend switch starts over.
  const tensor::VecBackend backend = tensor::vec_active_backend();
  if (table_.filled.empty() || table_.backend != backend) {
    table_.rows.resize(static_cast<std::size_t>(num_nodes()) * dim);
    table_.filled.assign(num_nodes(), 0);
    table_.backend = backend;
  }
  std::vector<NodeId> missing;
  for (const NodeId u : nodes) {
    if (table_.filled[u] == 0) missing.push_back(u);
  }
  if (!missing.empty()) {
    // One 1-hop block over the missing nodes: each one's row reads only its
    // own neighbors' features, as in any L-hop graph that contains it.
    const auto cg = full_neighborhood(*graph_, missing, 1);
    const sampling::Block& block = cg.blocks.front();
    Matrix inputs(block.src_nodes.size(), features_->dim());
    features_->gather_into(block.src_nodes, inputs.data());
    const Tensor h = model_->forward_layer(0, block, Tensor::constant(std::move(inputs)));
    const auto computed = block.dst_nodes();
    for (std::size_t i = 0; i < computed.size(); ++i) {
      const auto row = h.value().row(i);
      std::copy(row.begin(), row.end(), table_.rows.data() + computed[i] * dim);
      table_.filled[computed[i]] = 1;
    }
  }
  Matrix out(nodes.size(), dim);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const float* first = table_.rows.data() + nodes[i] * dim;
    std::copy(first, first + dim, out.row(i).begin());
  }
  return out;
}

void ServingModel::write_row(std::span<const float> row, std::span<std::byte> out) const {
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
    encode_row(pairs[i].u, {u_row, bytes});
    encode_row(pairs[i].v, {v_row, bytes});
    u_rows[i] = u_row;
    v_rows[i] = v_row;
  }
  return score_rows(u_rows, v_rows);
}

}  // namespace splpg::nn
