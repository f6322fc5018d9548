// Tests for the extension components: uniform sparsifier and
// degree-weighted negative sampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "sampling/negative_sampler.hpp"
#include "sparsify/sparsifier.hpp"

namespace splpg {
namespace {

using graph::CsrGraph;
using graph::GraphBuilder;
using graph::NodeId;
using util::Rng;

CsrGraph community_graph(NodeId nodes = 400, graph::EdgeId edges = 2800,
                         std::uint32_t communities = 4, std::uint64_t seed = 1) {
  data::SbmParams params;
  params.num_nodes = nodes;
  params.num_edges = edges;
  params.num_communities = communities;
  params.intra_prob = 0.92;
  Rng rng(seed);
  return data::generate_sbm(params, rng);
}

TEST(UniformSparsifier, SameBudgetAsEffectiveResistance) {
  const CsrGraph graph = community_graph();
  Rng rng1(2);
  Rng rng2(2);
  sparsify::SparsifyStats uniform_stats;
  sparsify::SparsifyStats resistance_stats;
  const CsrGraph uniform = sparsify::UniformSparsifier(0.15).sparsify(graph, rng1, &uniform_stats);
  (void)sparsify::EffectiveResistanceSparsifier(0.15).sparsify(graph, rng2, &resistance_stats);
  // Both draw L = ceil(0.15 |E|) edges. A uniform draw weighs |E| / L, so
  // the uniform weights count the draws: sum of w_e * L / |E| is L.
  const auto draws =
      static_cast<std::uint64_t>(std::ceil(0.15 * static_cast<double>(graph.num_edges())));
  std::uint64_t counted = 0;
  for (const float w : uniform.edge_weights()) {
    counted += static_cast<std::uint64_t>(std::llround(
        static_cast<double>(w) * static_cast<double>(draws) / graph.num_edges()));
  }
  EXPECT_EQ(counted, draws);
  EXPECT_LE(resistance_stats.kept_edges, draws);
  // With-replacement collisions are rarer under the uniform distribution, so
  // it keeps at least as many distinct edges.
  EXPECT_GE(uniform_stats.kept_edges, resistance_stats.kept_edges);
}

TEST(UniformSparsifier, WeightsAreUniformAcrossKeptEdges) {
  const CsrGraph graph = community_graph(100, 600);
  Rng rng(3);
  const auto sparse = sparsify::UniformSparsifier(0.2).sparsify(graph, rng);
  ASSERT_TRUE(sparse.is_weighted());
  // Singly-drawn edges all share the weight |E|/L; multiples are integer
  // multiples of it.
  const float base = *std::min_element(sparse.edge_weights().begin(),
                                       sparse.edge_weights().end());
  for (const float w : sparse.edge_weights()) {
    const float ratio = w / base;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-3);
  }
}

TEST(UniformSparsifier, KeepsHubEdgesMoreOftenThanResistance) {
  // ER-importance favors low-degree edges; the uniform baseline keeps hub-hub
  // edges at the same rate as any other, so the mean endpoint degree of kept
  // edges is higher under uniform sampling.
  const CsrGraph graph = community_graph(600, 5000, 4, 5);
  auto mean_endpoint_degree = [&](const CsrGraph& sparse) {
    double total = 0.0;
    for (const auto& [u, v] : sparse.edges()) {
      total += graph.degree(u) + graph.degree(v);
    }
    return total / (2.0 * static_cast<double>(sparse.num_edges()));
  };
  Rng rng1(6);
  Rng rng2(6);
  const auto uniform = sparsify::UniformSparsifier(0.1).sparsify(graph, rng1);
  const auto resistance = sparsify::EffectiveResistanceSparsifier(0.1).sparsify(graph, rng2);
  EXPECT_GT(mean_endpoint_degree(uniform), mean_endpoint_degree(resistance));
}

TEST(SparsifierFactory, KindsAndNames) {
  sparsify::SparsifyConfig config;
  config.alpha = 0.1;
  const auto er = sparsify::make_sparsifier(sparsify::SparsifierKind::kEffectiveResistance, config);
  EXPECT_EQ(er->name(), "effective_resistance");
  const auto uniform = sparsify::make_sparsifier(sparsify::SparsifierKind::kUniform, config);
  EXPECT_EQ(uniform->name(), "uniform");
  EXPECT_DOUBLE_EQ(uniform->alpha(), 0.1);
}

TEST(DegreeWeightedNegatives, PrefersHighDegreeDestinations) {
  // Star graph: hub 0 has degree n-1, leaves have degree 1. Under the
  // (deg+1)^0.75 distribution the hub must be drawn an order of magnitude
  // more often than under uniform. Sample with a leaf source (leaves are not
  // adjacent to each other, so only the hub edge gets rejected — use source
  // = leaf and count hub != possible; instead make source a node with no
  // edge to the hub: impossible in a star, so add one extra isolated node as
  // the source).
  constexpr NodeId kNodes = 101;
  GraphBuilder builder(kNodes + 1);  // node kNodes is isolated (the source)
  for (NodeId leaf = 1; leaf < kNodes; ++leaf) builder.add_edge(0, leaf);
  const CsrGraph graph = builder.build();

  std::vector<NodeId> candidates(kNodes);  // hub + leaves; not the source
  for (NodeId v = 0; v < kNodes; ++v) candidates[v] = v;
  const auto weights = sampling::negative_candidate_weights(
      sampling::NegativeDistribution::kDegreeWeighted, graph, candidates);
  ASSERT_EQ(weights.size(), candidates.size());
  EXPECT_GT(weights[0], 10.0 * weights[1]);  // hub weight dominates

  const sampling::PerSourceNegativeSampler weighted(
      candidates, [&graph](NodeId u, NodeId v) { return graph.has_edge(u, v); }, weights);
  const sampling::PerSourceNegativeSampler uniform(
      candidates, [&graph](NodeId u, NodeId v) { return graph.has_edge(u, v); });

  auto hub_rate = [&](const sampling::PerSourceNegativeSampler& sampler, std::uint64_t seed) {
    Rng rng(seed);
    int hub_draws = 0;
    constexpr int kDraws = 5000;
    for (int i = 0; i < kDraws; ++i) {
      if (sampler.sample_destination(kNodes, rng) == 0) ++hub_draws;
    }
    return static_cast<double>(hub_draws) / kDraws;
  };
  EXPECT_GT(hub_rate(weighted, 12), 5.0 * hub_rate(uniform, 12));
}

TEST(DegreeWeightedNegatives, UniformDistributionYieldsNoWeights) {
  const CsrGraph graph = community_graph(100, 500);
  std::vector<NodeId> candidates{0, 1, 2};
  EXPECT_TRUE(sampling::negative_candidate_weights(sampling::NegativeDistribution::kUniform,
                                                   graph, candidates)
                  .empty());
}

TEST(DegreeWeightedNegatives, WeightArityMismatchThrows) {
  EXPECT_THROW(sampling::PerSourceNegativeSampler({0, 1, 2},
                                                  [](NodeId, NodeId) { return false; },
                                                  {1.0, 2.0}),
               std::invalid_argument);
}

TEST(TrainerExtensions, UniformSparsifierVariantRuns) {
  const auto dataset = data::make_dataset("cora", 0.1, 13);
  util::Rng split_rng = util::Rng(13).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);
  core::TrainConfig config;
  config.method = core::Method::kSplpg;
  config.sparsifier = sparsify::SparsifierKind::kUniform;
  config.model.hidden_dim = 16;
  config.model.num_layers = 2;
  config.epochs = 2;
  config.batch_size = 64;
  config.num_partitions = 2;
  config.max_batches_per_epoch = 2;
  config.seed = 13;
  const auto result = core::train_link_prediction(split, dataset.features, config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.comm.total_bytes(), 0U);
}

TEST(TrainerExtensions, DegreeWeightedNegativesVariantRuns) {
  const auto dataset = data::make_dataset("cora", 0.1, 14);
  util::Rng split_rng = util::Rng(14).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);
  core::TrainConfig config;
  config.method = core::Method::kSplpg;
  config.negative_distribution = sampling::NegativeDistribution::kDegreeWeighted;
  config.model.hidden_dim = 16;
  config.model.num_layers = 2;
  config.epochs = 2;
  config.batch_size = 64;
  config.num_partitions = 2;
  config.max_batches_per_epoch = 2;
  config.seed = 14;
  const auto result = core::train_link_prediction(split, dataset.features, config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.test_auc, 0.3);
}

}  // namespace
}  // namespace splpg
