// Unit tests for the graph module: CSR construction, builder semantics,
// queries, algorithms, and feature stores.
#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "graph/csr_graph.hpp"
#include "graph/features.hpp"

namespace splpg::graph {
namespace {

/// Path 0-1-2-3 plus chord 1-3.
CsrGraph make_path_with_chord() {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(1, 3);
  return builder.build();
}

TEST(GraphBuilder, DeduplicatesAndDropsSelfLoops) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 0);  // duplicate in the other direction
  builder.add_edge(0, 1);  // duplicate
  builder.add_edge(2, 2);  // self-loop
  EXPECT_EQ(builder.num_edges(), 1U);
  const CsrGraph graph = builder.build();
  EXPECT_EQ(graph.num_edges(), 1U);
  EXPECT_EQ(graph.degree(2), 0U);
}

TEST(GraphBuilder, WeightedDuplicatesSumWeights) {
  GraphBuilder builder(2, /*weighted=*/true);
  builder.add_edge(0, 1, 0.5F);
  builder.add_edge(1, 0, 1.5F);
  const CsrGraph graph = builder.build();
  ASSERT_EQ(graph.num_edges(), 1U);
  EXPECT_FLOAT_EQ(graph.edge_weight(0), 2.0F);
}

TEST(GraphBuilder, OutOfRangeEndpointThrows) {
  GraphBuilder builder(2);
  EXPECT_THROW(builder.add_edge(0, 5), std::out_of_range);
}

TEST(GraphBuilder, ReusableAfterBuild) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  const CsrGraph first = builder.build();
  EXPECT_EQ(first.num_edges(), 1U);
  builder.add_edge(1, 2);
  const CsrGraph second = builder.build();
  EXPECT_EQ(second.num_edges(), 1U);
  EXPECT_TRUE(second.has_edge(1, 2));
  EXPECT_FALSE(second.has_edge(0, 1));
}

TEST(CsrGraph, NeighborsAreSortedAndSymmetric) {
  const CsrGraph graph = make_path_with_chord();
  const auto n1 = graph.neighbors(1);
  ASSERT_EQ(n1.size(), 3U);
  EXPECT_TRUE(std::is_sorted(n1.begin(), n1.end()));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const NodeId w : graph.neighbors(v)) {
      const auto back = graph.neighbors(w);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), v));
    }
  }
}

TEST(CsrGraph, HasEdgeMatchesEdgeList) {
  const CsrGraph graph = make_path_with_chord();
  EXPECT_TRUE(graph.has_edge(0, 1));
  EXPECT_TRUE(graph.has_edge(1, 0));
  EXPECT_TRUE(graph.has_edge(1, 3));
  EXPECT_FALSE(graph.has_edge(0, 2));
  EXPECT_FALSE(graph.has_edge(0, 3));
  EXPECT_FALSE(graph.has_edge(2, 2));
  EXPECT_FALSE(graph.has_edge(0, 99));  // out of range is just "no"
}

TEST(CsrGraph, DegreesAndTotals) {
  const CsrGraph graph = make_path_with_chord();
  EXPECT_EQ(graph.degree(0), 1U);
  EXPECT_EQ(graph.degree(1), 3U);
  EXPECT_EQ(graph.degree(2), 2U);
  EXPECT_EQ(graph.degree(3), 2U);
  EXPECT_EQ(graph.total_degree(), 8U);
  EXPECT_EQ(graph.max_degree(), 3U);
  EXPECT_DOUBLE_EQ(graph.mean_degree(), 2.0);
}

TEST(CsrGraph, CanonicalEdgeListSorted) {
  const CsrGraph graph = make_path_with_chord();
  const auto edges = graph.edges();
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(CsrGraph, NonCanonicalConstructorInputThrows) {
  EXPECT_THROW(CsrGraph(3, {{1, 0}}), std::invalid_argument);  // u >= v
  EXPECT_THROW(CsrGraph(3, {{1, 1}}), std::invalid_argument);  // self-loop
  EXPECT_THROW(CsrGraph(2, {{0, 2}}), std::out_of_range);      // out of range
}

TEST(CsrGraph, WeightedNeighborWeightsAligned) {
  GraphBuilder builder(3, true);
  builder.add_edge(0, 1, 2.0F);
  builder.add_edge(0, 2, 3.0F);
  const CsrGraph graph = builder.build();
  const auto neighbors = graph.neighbors(0);
  const auto weights = graph.neighbor_weights(0);
  ASSERT_EQ(neighbors.size(), 2U);
  ASSERT_EQ(weights.size(), 2U);
  EXPECT_EQ(neighbors[0], 1U);
  EXPECT_FLOAT_EQ(weights[0], 2.0F);
  EXPECT_EQ(neighbors[1], 2U);
  EXPECT_FLOAT_EQ(weights[1], 3.0F);
}

TEST(CsrGraph, EmptyGraph) {
  const CsrGraph graph(0, {});
  EXPECT_EQ(graph.num_nodes(), 0U);
  EXPECT_EQ(graph.num_edges(), 0U);
  EXPECT_EQ(graph.max_degree(), 0U);
  EXPECT_DOUBLE_EQ(graph.mean_degree(), 0.0);
}

TEST(CsrGraph, StructureBytesScalesWithDegree) {
  const CsrGraph graph = make_path_with_chord();
  EXPECT_EQ(graph.structure_bytes(1), 3 * sizeof(NodeId) + sizeof(EdgeId));
  EXPECT_EQ(graph.structure_bytes(0), 1 * sizeof(NodeId) + sizeof(EdgeId));
}

TEST(Algorithms, ConnectedComponents) {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(3, 4);  // node 5 isolated
  const CsrGraph graph = builder.build();
  const auto components = connected_components(graph);
  EXPECT_EQ(components.count, 3U);
  EXPECT_EQ(components.label[0], components.label[2]);
  EXPECT_NE(components.label[0], components.label[3]);
  const auto sizes = components.component_sizes();
  EXPECT_EQ(sizes[components.largest()], 3U);
}

TEST(Algorithms, KHopNeighborhood) {
  const CsrGraph graph = make_path_with_chord();
  const std::vector<NodeId> seeds{0};
  const auto hop0 = k_hop_neighborhood(graph, seeds, 0);
  EXPECT_EQ(hop0, std::vector<NodeId>({0}));
  const auto hop1 = k_hop_neighborhood(graph, seeds, 1);
  EXPECT_EQ(hop1, std::vector<NodeId>({0, 1}));
  const auto hop2 = k_hop_neighborhood(graph, seeds, 2);
  EXPECT_EQ(hop2, std::vector<NodeId>({0, 1, 2, 3}));
}

TEST(Algorithms, TriangleCountAndClustering) {
  // Triangle 0-1-2 plus pendant 3.
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  builder.add_edge(2, 3);
  const CsrGraph graph = builder.build();
  EXPECT_EQ(triangle_count(graph), 1U);
  // Wedges: d(0)=2 ->1, d(1)=2 ->1, d(2)=3 ->3, d(3)=1 ->0; total 5.
  EXPECT_NEAR(global_clustering_coefficient(graph), 3.0 / 5.0, 1e-12);
}

TEST(Algorithms, DegreeStatsOnRegularGraph) {
  // 4-cycle: all degrees 2.
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(0, 3);
  const auto stats = degree_stats(builder.build());
  EXPECT_DOUBLE_EQ(stats.mean, 2.0);
  EXPECT_DOUBLE_EQ(stats.variance, 0.0);
  EXPECT_EQ(stats.min, 2U);
  EXPECT_EQ(stats.max, 2U);
  EXPECT_NEAR(stats.gini, 0.0, 1e-9);
}

TEST(FeatureStore, RowAccessAndGather) {
  FeatureStore store(3, 2);
  store.row(0)[0] = 1.0F;
  store.row(0)[1] = 2.0F;
  store.row(2)[0] = 5.0F;
  const std::vector<NodeId> nodes{2, 0};
  const FeatureStore gathered = store.gather(nodes);
  EXPECT_EQ(gathered.num_nodes(), 2U);
  EXPECT_FLOAT_EQ(gathered.row(0)[0], 5.0F);
  EXPECT_FLOAT_EQ(gathered.row(1)[1], 2.0F);
}

TEST(FeatureStore, FeatureBytes) {
  const FeatureStore store(10, 7);
  EXPECT_EQ(store.feature_bytes(), 7 * sizeof(float));
}

TEST(FeatureStore, SizeMismatchThrows) {
  EXPECT_THROW(FeatureStore(2, 3, std::vector<float>(5)), std::invalid_argument);
}

}  // namespace
}  // namespace splpg::graph
