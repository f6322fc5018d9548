#include "sparsify/sparsifier.hpp"

#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace splpg::sparsify {

using graph::CsrGraph;
using graph::Edge;
using graph::EdgeId;
using graph::NodeId;
using util::AliasTable;
using util::Rng;

Sparsifier::Sparsifier(double alpha, std::size_t num_threads)
    : alpha_(alpha), num_threads_(num_threads) {
  // NaN fails every comparison and infinity makes the draw count a cast of
  // inf, so both are rejected here with the non-positive values.
  if (!std::isfinite(alpha) || alpha <= 0.0) {
    throw std::invalid_argument("sparsifier: alpha must be finite and > 0, got " +
                                std::to_string(alpha));
  }
}

std::pair<std::vector<Edge>, std::vector<float>> Sparsifier::sparsify_edges(
    std::span<const Edge> edges, const std::function<double(NodeId)>& degree_of, Rng& rng,
    SparsifyStats* stats) const {
  std::pair<std::vector<Edge>, std::vector<float>> out;
  if (edges.empty()) return out;

  std::vector<double> importance(edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    importance[e] = edge_importance(edges[e], degree_of);
  }
  const AliasTable alias{std::span<const double>(importance)};

  const auto draws = static_cast<EdgeId>(
      std::max<double>(1.0, std::ceil(alpha_ * static_cast<double>(edges.size()))));

  // Accumulate weights per distinct sampled edge index; summing duplicates
  // implements "sum the weights up if an edge is chosen more than once".
  std::unordered_map<std::uint32_t, double> weight_of;
  weight_of.reserve(draws * 2);
  for (EdgeId l = 0; l < draws; ++l) {
    const std::uint32_t e = alias.sample(rng);
    weight_of[e] += 1.0 / (static_cast<double>(draws) * alias.probability(e));
  }

  out.first.reserve(weight_of.size());
  out.second.reserve(weight_of.size());
  for (const auto& [e, weight] : weight_of) {
    out.first.push_back(edges[e]);
    out.second.push_back(static_cast<float>(weight));
  }
  if (stats != nullptr) {
    stats->kept_edges = out.first.size();
    stats->removal_ratio =
        1.0 - static_cast<double>(out.first.size()) / static_cast<double>(edges.size());
  }
  return out;
}

CsrGraph Sparsifier::sparsify(const CsrGraph& graph, Rng& rng, SparsifyStats* stats) const {
  auto [edges, weights] = sparsify_edges(
      graph.edges(), [&graph](NodeId v) { return static_cast<double>(graph.degree(v)); }, rng,
      stats);
  return CsrGraph(graph.num_nodes(), std::move(edges), std::move(weights));
}

std::vector<CsrGraph> Sparsifier::sparsify_partitions(
    const CsrGraph& graph, const std::vector<std::uint32_t>& assignment, std::uint32_t num_parts,
    Rng& rng, std::vector<SparsifyStats>* stats) const {
  if (assignment.size() != graph.num_nodes()) {
    throw std::invalid_argument("sparsify_partitions: assignment size mismatch");
  }
  if (stats != nullptr) stats->assign(num_parts, SparsifyStats{});

  // Each partition is independent work over a pre-split RNG stream, so the
  // fan-out below never races and never reorders draws: slot `part` of the
  // output is the same bytes whether computed here or on a pool thread.
  std::vector<CsrGraph> out(num_parts);
  auto process_part = [&](std::size_t part_index) {
    const auto part = static_cast<std::uint32_t>(part_index);
    Rng part_rng = rng.split("part", part);

    // Partition subgraph G^i: every edge with at least one endpoint in part i
    // ("cross-partition edges are maintained in both partitions").
    std::vector<Edge> part_edges;
    for (const auto& edge : graph.edges()) {
      if (assignment[edge.u] == part || assignment[edge.v] == part) {
        part_edges.push_back(edge);
      }
    }
    // Degrees *within* G^i.
    std::unordered_map<NodeId, double> degree;
    degree.reserve(part_edges.size() * 2);
    for (const auto& [u, v] : part_edges) {
      degree[u] += 1.0;
      degree[v] += 1.0;
    }

    auto [edges, weights] = sparsify_edges(
        std::span<const Edge>(part_edges), [&degree](NodeId v) { return degree.at(v); },
        part_rng, stats != nullptr ? &(*stats)[part] : nullptr);
    out[part] = CsrGraph(graph.num_nodes(), std::move(edges), std::move(weights));
  };

  std::optional<util::ThreadPool> pool;
  if (num_threads_ != 1 && num_parts > 1) pool.emplace(num_threads_);
  util::for_each_index(pool ? &*pool : nullptr, num_parts, process_part);
  return out;
}

double EffectiveResistanceSparsifier::edge_importance(
    const Edge& edge, const std::function<double(NodeId)>& degree_of) const {
  return 1.0 / degree_of(edge.u) + 1.0 / degree_of(edge.v);
}

double UniformSparsifier::edge_importance(const Edge& edge,
                                          const std::function<double(NodeId)>& degree_of) const {
  (void)edge;
  (void)degree_of;
  return 1.0;
}

std::unique_ptr<Sparsifier> make_sparsifier(SparsifierKind kind, const SparsifyConfig& config) {
  switch (kind) {
    case SparsifierKind::kEffectiveResistance:
      return std::make_unique<EffectiveResistanceSparsifier>(config.alpha, config.num_threads);
    case SparsifierKind::kUniform:
      return std::make_unique<UniformSparsifier>(config.alpha, config.num_threads);
  }
  throw std::invalid_argument("unknown sparsifier kind");
}

}  // namespace splpg::sparsify
