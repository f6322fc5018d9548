#include "core/evaluator.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "sampling/neighbor_sampler.hpp"
#include "tensor/parallel.hpp"

namespace splpg::core {

using graph::NodeId;
using sampling::NodePair;

Evaluator::Evaluator(const sampling::LinkSplit& split, const graph::FeatureStore& features,
                     std::vector<std::uint32_t> fanouts, std::size_t k, std::size_t chunk_size,
                     std::uint64_t seed, std::size_t num_threads)
    : split_(&split), features_(&features), fanouts_(std::move(fanouts)), k_(k),
      chunk_size_(std::max<std::size_t>(1, chunk_size)), seed_(seed),
      pool_(num_threads != 1 ? std::make_unique<util::ThreadPool>(num_threads) : nullptr) {}

std::vector<float> Evaluator::score_pairs(const nn::LinkPredictionModel& model,
                                          std::span<const NodePair> pairs) const {
  // Map every endpoint to its seed row (first-seen order, which is the order
  // the sampler keeps when it deduplicates seeds).
  const NodeId num_nodes = split_->train_graph.num_nodes();
  std::unordered_map<NodeId, std::uint32_t> row_of;
  row_of.reserve(2 * pairs.size());
  std::vector<NodeId> endpoints;
  const auto row = [&](NodeId v) {
    const auto [it, inserted] = row_of.emplace(v, static_cast<std::uint32_t>(endpoints.size()));
    if (inserted) endpoints.push_back(v);
    return it->second;
  };
  std::vector<nn::PairIndex> rows;
  rows.reserve(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (pairs[i].u >= num_nodes || pairs[i].v >= num_nodes) {
      throw std::out_of_range("Evaluator::score_pairs: pair " + std::to_string(i) +
                              " has a node id out of range");
    }
    rows.push_back({row(pairs[i].u), row(pairs[i].v)});
  }
  if (pairs.empty()) return {};  // the sampler rejects an empty seed set

  // One computation graph over every endpoint, encoded once: each layer's
  // receptive field is gathered and transformed a single time however many
  // pairs share it. pool_ drives the sampler's chunks and the row-blocked
  // kernels; without it the caller's compute pool stays installed.
  util::Rng rng = util::Rng(seed_).split("evaluator");
  sampling::GraphProvider provider(split_->train_graph);
  const auto cg = sampling::NeighborSampler(fanouts_).sample(provider, endpoints, rng,
                                                             pool_.get(), chunk_size_);
  const tensor::ComputePoolScope compute_scope(pool_ != nullptr ? pool_.get()
                                                                : tensor::compute_pool());
  const auto logits = model.score(model.encode(cg, *features_), rows);

  std::vector<float> scores(pairs.size());
  for (std::size_t i = 0; i < scores.size(); ++i) scores[i] = logits.value().at(i, 0);
  return scores;
}

EvalResult Evaluator::evaluate(const nn::LinkPredictionModel& model) const {
  const sampling::LinkSplit& split = *split_;
  std::vector<NodePair> pairs;
  pairs.reserve(split.val_pos.size() + split.val_neg.size() + split.test_pos.size() +
                split.test_neg.size());
  for (const auto& [u, v] : split.val_pos) pairs.push_back({u, v});
  pairs.insert(pairs.end(), split.val_neg.begin(), split.val_neg.end());
  for (const auto& [u, v] : split.test_pos) pairs.push_back({u, v});
  pairs.insert(pairs.end(), split.test_neg.begin(), split.test_neg.end());

  // Scored in one pass, then cut back into the four lists.
  const auto scores = score_pairs(model, pairs);
  std::span<const float> rest(scores);
  const auto take = [&rest](std::size_t n) {
    const auto head = rest.first(n);
    rest = rest.subspan(n);
    return head;
  };
  const auto val_pos = take(split.val_pos.size());
  const auto val_neg = take(split.val_neg.size());
  const auto test_pos = take(split.test_pos.size());
  const auto test_neg = take(split.test_neg.size());

  EvalResult out;
  out.k = k_ != 0 ? k_ : std::max<std::size_t>(10, split.test_neg.size() / 30);
  out.val_hits = eval::hits_at_k(val_pos, val_neg, out.k);
  out.test_hits = eval::hits_at_k(test_pos, test_neg, out.k);
  out.val_auc = eval::auc(val_pos, val_neg);
  out.test_auc = eval::auc(test_pos, test_neg);
  return out;
}

}  // namespace splpg::core
