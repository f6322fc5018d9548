// Tests for the synthetic dataset generators and the Table-I registry.
#include <gtest/gtest.h>

#include <cmath>

#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "graph/algorithms.hpp"

namespace splpg::data {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using util::Rng;

TEST(Sbm, ProducesRequestedSize) {
  SbmParams params;
  params.num_nodes = 500;
  params.num_edges = 2500;
  params.num_communities = 10;
  Rng rng(1);
  const CsrGraph graph = generate_sbm(params, rng);
  EXPECT_EQ(graph.num_nodes(), 500U);
  // Edge target may fall slightly short on dense/small communities.
  EXPECT_GE(graph.num_edges(), 2400U);
  EXPECT_LE(graph.num_edges(), 2500U);
}

TEST(Sbm, CommunitiesAreBalancedAndCover) {
  SbmParams params;
  params.num_nodes = 300;
  params.num_edges = 1200;
  params.num_communities = 6;
  Rng rng(2);
  std::vector<std::uint32_t> communities;
  (void)generate_sbm(params, rng, &communities);
  ASSERT_EQ(communities.size(), 300U);
  std::vector<int> sizes(6, 0);
  for (const auto c : communities) {
    ASSERT_LT(c, 6U);
    ++sizes[c];
  }
  for (const int s : sizes) EXPECT_EQ(s, 50);
}

TEST(Sbm, IntraCommunityEdgesDominate) {
  SbmParams params;
  params.num_nodes = 400;
  params.num_edges = 2000;
  params.num_communities = 8;
  params.intra_prob = 0.9;
  Rng rng(3);
  std::vector<std::uint32_t> communities;
  const CsrGraph graph = generate_sbm(params, rng, &communities);
  std::size_t intra = 0;
  for (const auto& [u, v] : graph.edges()) {
    if (communities[u] == communities[v]) ++intra;
  }
  const double fraction = static_cast<double>(intra) / static_cast<double>(graph.num_edges());
  EXPECT_GT(fraction, 0.8);
}

TEST(Sbm, DeterministicGivenRngState) {
  SbmParams params;
  params.num_nodes = 200;
  params.num_edges = 800;
  Rng rng1(7);
  Rng rng2(7);
  const CsrGraph a = generate_sbm(params, rng1);
  const CsrGraph b = generate_sbm(params, rng2);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t e = 0; e < a.num_edges(); ++e) EXPECT_EQ(a.edges()[e], b.edges()[e]);
}

TEST(Sbm, HeavyTailedDegrees) {
  SbmParams params;
  params.num_nodes = 2000;
  params.num_edges = 10000;
  params.pareto_shape = 2.0;
  Rng rng(4);
  const CsrGraph graph = generate_sbm(params, rng);
  const auto stats = graph::degree_stats(graph);
  // Pareto weights should give substantially more inequality than uniform
  // endpoint selection would (ER Gini ~ 0.2 at this density).
  EXPECT_GT(stats.gini, 0.3);
  EXPECT_GT(stats.max, 4 * stats.mean);
}

TEST(BarabasiAlbert, SizeAndConnectivity) {
  Rng rng(5);
  const CsrGraph graph = generate_barabasi_albert(500, 3, rng);
  EXPECT_EQ(graph.num_nodes(), 500U);
  EXPECT_GT(graph.num_edges(), 1400U);  // ~ (n - m0) * m
  const auto components = graph::connected_components(graph);
  EXPECT_EQ(components.count, 1U);  // preferential attachment keeps it connected
}

TEST(BarabasiAlbert, HubsEmerge) {
  Rng rng(6);
  const CsrGraph graph = generate_barabasi_albert(2000, 2, rng);
  EXPECT_GT(graph.max_degree(), 20U);  // scale-free tail
}

TEST(ErdosRenyi, ExactEdgeCount) {
  Rng rng(7);
  const CsrGraph graph = generate_erdos_renyi(300, 1000, rng);
  EXPECT_EQ(graph.num_nodes(), 300U);
  EXPECT_EQ(graph.num_edges(), 1000U);
}

TEST(ErdosRenyi, TooManyEdgesThrows) {
  Rng rng(8);
  EXPECT_THROW(generate_erdos_renyi(4, 100, rng), std::invalid_argument);
}

TEST(WattsStrogatz, ZeroBetaIsRingLattice) {
  Rng rng(9);
  const CsrGraph graph = generate_watts_strogatz(50, 4, 0.0, rng);
  for (NodeId v = 0; v < 50; ++v) EXPECT_EQ(graph.degree(v), 4U);
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(0, 2));
  EXPECT_FALSE(graph.has_edge(0, 3));
}

TEST(WattsStrogatz, RewiringReducesClustering) {
  Rng rng(10);
  const CsrGraph lattice = generate_watts_strogatz(400, 6, 0.0, rng);
  const CsrGraph rewired = generate_watts_strogatz(400, 6, 0.9, rng);
  EXPECT_GT(graph::global_clustering_coefficient(lattice),
            graph::global_clustering_coefficient(rewired) + 0.1);
}

TEST(Features, CommunityCorrelation) {
  // Nodes in the same community must be closer in feature space on average.
  Rng rng(11);
  std::vector<std::uint32_t> communities(200);
  for (std::size_t i = 0; i < communities.size(); ++i) communities[i] = i % 4;
  const auto features = generate_features(200, 32, communities, 1.0, 0.5, rng);

  auto distance = [&](NodeId a, NodeId b) {
    double sum = 0.0;
    const auto ra = features.row(a);
    const auto rb = features.row(b);
    for (std::size_t d = 0; d < ra.size(); ++d) {
      const double diff = ra[d] - rb[d];
      sum += diff * diff;
    }
    return std::sqrt(sum);
  };
  double same = 0.0;
  double cross = 0.0;
  int same_count = 0;
  int cross_count = 0;
  for (NodeId a = 0; a < 50; ++a) {
    for (NodeId b = a + 1; b < 50; ++b) {
      if (communities[a] == communities[b]) {
        same += distance(a, b);
        ++same_count;
      } else {
        cross += distance(a, b);
        ++cross_count;
      }
    }
  }
  EXPECT_LT(same / same_count, cross / cross_count);
}

TEST(Features, NoCommunitiesIsPureNoise) {
  Rng rng(12);
  const auto features = generate_features(100, 16, {}, 1.0, 1.0, rng);
  EXPECT_EQ(features.num_nodes(), 100U);
  EXPECT_EQ(features.dim(), 16U);
  double sum = 0.0;
  for (const float x : features.data()) sum += x;
  EXPECT_NEAR(sum / static_cast<double>(features.data().size()), 0.0, 0.1);
}

TEST(Registry, HasAllNineDatasets) {
  const auto& registry = dataset_registry();
  ASSERT_EQ(registry.size(), 9U);
  EXPECT_EQ(registry.front().name, "citeseer");
  EXPECT_EQ(registry.back().name, "ppa");
  EXPECT_EQ(registry.back().paper_edges, 30'326'273U);
}

TEST(Registry, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(dataset_config("cora").paper_nodes, 2'708U);
  EXPECT_THROW((void)dataset_config("imagenet"), std::out_of_range);
}

TEST(MakeDataset, ScalesNodeAndEdgeCounts) {
  const Dataset full = make_dataset("citeseer", 1.0, 1);
  const Dataset small = make_dataset("citeseer", 0.25, 1);
  EXPECT_GT(full.graph.num_nodes(), 3000U);
  EXPECT_LT(small.graph.num_nodes(), 1000U);
  EXPECT_GT(small.graph.num_nodes(), 500U);
  EXPECT_EQ(small.features.num_nodes(), small.graph.num_nodes());
}

TEST(MakeDataset, DeterministicInSeed) {
  const Dataset a = make_dataset("cora", 0.2, 5);
  const Dataset b = make_dataset("cora", 0.2, 5);
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.features.row(3)[0], b.features.row(3)[0]);
  const Dataset c = make_dataset("cora", 0.2, 6);
  EXPECT_NE(a.features.row(3)[0], c.features.row(3)[0]);
}

TEST(MakeDataset, BadScaleThrows) {
  EXPECT_THROW(make_dataset("cora", 0.0, 1), std::invalid_argument);
  EXPECT_THROW(make_dataset("cora", 1.5, 1), std::invalid_argument);
}

}  // namespace
}  // namespace splpg::data
