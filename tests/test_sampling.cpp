// Tests for the sampling module: link splits, negative samplers, batch
// iteration, and the k-hop block sampler.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "data/generators.hpp"
#include "graph/algorithms.hpp"
#include "sampling/edge_split.hpp"
#include "sampling/negative_sampler.hpp"
#include "sampling/neighbor_sampler.hpp"

namespace splpg::sampling {
namespace {

using graph::CsrGraph;
using graph::Edge;
using graph::GraphBuilder;
using graph::NodeId;
using util::Rng;

CsrGraph test_graph(NodeId nodes = 300, graph::EdgeId edges = 1800, std::uint64_t seed = 1) {
  data::SbmParams params;
  params.num_nodes = nodes;
  params.num_edges = edges;
  params.num_communities = 6;
  Rng rng(seed);
  return data::generate_sbm(params, rng);
}

TEST(EdgeSplit, FractionsRespected) {
  const CsrGraph graph = test_graph();
  Rng rng(2);
  const LinkSplit split = split_edges(graph, SplitOptions{}, rng);
  const auto total = graph.num_edges();
  EXPECT_NEAR(static_cast<double>(split.train_pos.size()) / total, 0.8, 0.01);
  EXPECT_NEAR(static_cast<double>(split.val_pos.size()) / total, 0.1, 0.01);
  EXPECT_EQ(split.train_pos.size() + split.val_pos.size() + split.test_pos.size(), total);
}

TEST(EdgeSplit, PartsAreDisjointAndCover) {
  const CsrGraph graph = test_graph();
  Rng rng(3);
  const LinkSplit split = split_edges(graph, SplitOptions{}, rng);
  std::set<Edge> all;
  for (const auto& e : split.train_pos) all.insert(e);
  for (const auto& e : split.val_pos) all.insert(e);
  for (const auto& e : split.test_pos) all.insert(e);
  EXPECT_EQ(all.size(), graph.num_edges());
}

TEST(EdgeSplit, TrainGraphContainsOnlyTrainEdges) {
  const CsrGraph graph = test_graph();
  Rng rng(4);
  const LinkSplit split = split_edges(graph, SplitOptions{}, rng);
  EXPECT_EQ(split.train_graph.num_edges(), split.train_pos.size());
  for (const auto& [u, v] : split.val_pos) EXPECT_FALSE(split.train_graph.has_edge(u, v));
  for (const auto& [u, v] : split.test_pos) EXPECT_FALSE(split.train_graph.has_edge(u, v));
}

TEST(EdgeSplit, EvalNegativesAreThreeXAndNonEdges) {
  const CsrGraph graph = test_graph();
  Rng rng(5);
  const LinkSplit split = split_edges(graph, SplitOptions{}, rng);
  EXPECT_EQ(split.val_neg.size(), 3 * split.val_pos.size());
  EXPECT_EQ(split.test_neg.size(), 3 * split.test_pos.size());
  for (const auto& [u, v] : split.test_neg) {
    EXPECT_NE(u, v);
    EXPECT_FALSE(graph.has_edge(u, v));  // not even a held-out positive
  }
}

TEST(EdgeSplit, DeterministicGivenRngState) {
  const CsrGraph graph = test_graph();
  Rng rng1(6);
  Rng rng2(6);
  const LinkSplit a = split_edges(graph, SplitOptions{}, rng1);
  const LinkSplit b = split_edges(graph, SplitOptions{}, rng2);
  EXPECT_EQ(a.train_pos, b.train_pos);
  ASSERT_EQ(a.test_neg.size(), b.test_neg.size());
  for (std::size_t i = 0; i < a.test_neg.size(); ++i) EXPECT_EQ(a.test_neg[i], b.test_neg[i]);
}

TEST(EdgeSplit, TinyGraphThrows) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  const CsrGraph graph = builder.build();
  Rng rng(7);
  EXPECT_THROW(split_edges(graph, SplitOptions{}, rng), std::invalid_argument);
}

TEST(GlobalNegatives, DistinctWithinCall) {
  const CsrGraph graph = test_graph(100, 300);
  Rng rng(8);
  const auto negatives = sample_global_negatives(graph, 200, rng);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const auto& [u, v] : negatives) {
    EXPECT_TRUE(seen.emplace(std::min(u, v), std::max(u, v)).second);
  }
}

TEST(PerSourceSampler, NeverReturnsNeighborOrSelf) {
  const CsrGraph graph = test_graph();
  std::vector<NodeId> candidates(graph.num_nodes());
  for (NodeId v = 0; v < candidates.size(); ++v) candidates[v] = v;
  const PerSourceNegativeSampler sampler(
      candidates, [&graph](NodeId u, NodeId v) { return graph.has_edge(u, v); });
  Rng rng(9);
  for (NodeId source = 0; source < 50; ++source) {
    for (int trial = 0; trial < 10; ++trial) {
      const NodeId dst = sampler.sample_destination(source, rng);
      EXPECT_NE(dst, source);
      EXPECT_FALSE(graph.has_edge(source, dst));
    }
  }
}

TEST(PerSourceSampler, RestrictedCandidateScope) {
  const CsrGraph graph = test_graph();
  // Candidates limited to nodes 0..9.
  std::vector<NodeId> candidates{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const PerSourceNegativeSampler sampler(
      candidates, [&graph](NodeId u, NodeId v) { return graph.has_edge(u, v); });
  Rng rng(10);
  for (int trial = 0; trial < 100; ++trial) {
    EXPECT_LT(sampler.sample_destination(200, rng), 10U);
  }
}

TEST(PerSourceSampler, BatchPairsSourceFromPositives) {
  const CsrGraph graph = test_graph();
  std::vector<NodeId> candidates(graph.num_nodes());
  for (NodeId v = 0; v < candidates.size(); ++v) candidates[v] = v;
  const PerSourceNegativeSampler sampler(
      candidates, [&graph](NodeId u, NodeId v) { return graph.has_edge(u, v); });
  const std::vector<Edge> positives(graph.edges().begin(), graph.edges().begin() + 20);
  Rng rng(11);
  const auto negatives = sampler.sample_for_batch(positives, rng);
  ASSERT_EQ(negatives.size(), positives.size());
  for (std::size_t i = 0; i < negatives.size(); ++i) {
    EXPECT_EQ(negatives[i].u, positives[i].u);  // per-source: same source node
    EXPECT_FALSE(graph.has_edge(negatives[i].u, negatives[i].v));
  }
}

TEST(PerSourceSampler, TooFewCandidatesThrows) {
  EXPECT_THROW(PerSourceNegativeSampler({5}, [](NodeId, NodeId) { return false; }),
               std::invalid_argument);
}

TEST(PerSourceSampler, NearCliqueFallsBackToValidCandidate) {
  // K6 minus the edge (0, 5): from source 0 the only valid negative is 5.
  // With max_tries = 1, rejection sampling almost always exhausts on a
  // neighbor (or 0 itself); the fallback scan must still find 5 rather than
  // hand back a rejected draw as a "negative".
  GraphBuilder builder(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) {
      if (u == 0 && v == 5) continue;
      builder.add_edge(u, v);
    }
  }
  const CsrGraph graph = builder.build();
  std::vector<NodeId> candidates{0, 1, 2, 3, 4, 5};
  const PerSourceNegativeSampler sampler(
      candidates, [&graph](NodeId u, NodeId v) { return graph.has_edge(u, v); });
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    EXPECT_EQ(sampler.sample_destination(0, rng, 1), 5U);
  }
}

TEST(BatchIterator, CoversAllEdgesOncePerEpoch) {
  const CsrGraph graph = test_graph(100, 400);
  const std::vector<Edge> edges(graph.edges().begin(), graph.edges().end());
  BatchIterator iterator(edges, 64);
  Rng rng(12);
  iterator.reset(rng);
  std::set<Edge> seen;
  std::size_t batches = 0;
  for (auto batch = iterator.next(); !batch.empty(); batch = iterator.next()) {
    ++batches;
    EXPECT_LE(batch.size(), 64U);
    for (const auto& e : batch) EXPECT_TRUE(seen.insert(e).second);
  }
  EXPECT_EQ(seen.size(), edges.size());
  EXPECT_EQ(batches, (edges.size() + 63) / 64);
}

TEST(BatchIterator, ReshufflesAcrossEpochs) {
  const CsrGraph graph = test_graph(100, 400);
  const std::vector<Edge> edges(graph.edges().begin(), graph.edges().end());
  BatchIterator iterator(edges, 1000);
  Rng rng(13);
  iterator.reset(rng);
  const auto first = iterator.next();
  iterator.reset(rng);
  const auto second = iterator.next();
  EXPECT_NE(first, second);  // same multiset, different order w.h.p.
}

TEST(NeighborSampler, BlockStructureInvariants) {
  const CsrGraph graph = test_graph();
  GraphProvider provider(graph);
  const NeighborSampler sampler({5, 10, 25});
  Rng rng(14);
  const std::vector<NodeId> seeds{1, 2, 3, 4, 5, 2, 1};  // duplicates allowed
  const auto cg = sampler.sample(provider, seeds, rng);
  ASSERT_EQ(cg.blocks.size(), 3U);

  // Seeds dedupe in first-seen order.
  const auto seed_nodes = cg.seed_nodes();
  ASSERT_EQ(seed_nodes.size(), 5U);
  EXPECT_EQ(seed_nodes[0], 1U);

  for (std::size_t layer = 0; layer < 3; ++layer) {
    const Block& block = cg.blocks[layer];
    ASSERT_GE(block.src_nodes.size(), block.dst_count);
    // dst prefix property.
    for (std::size_t d = 0; d < block.dst_count; ++d) {
      EXPECT_EQ(block.src_nodes[d], block.dst_nodes()[d]);
    }
    // Edge indices in range; every edge is a real graph edge.
    ASSERT_EQ(block.edge_src.size(), block.edge_dst.size());
    ASSERT_EQ(block.edge_weight.size(), block.edge_src.size());
    for (std::size_t e = 0; e < block.num_edges(); ++e) {
      ASSERT_LT(block.edge_src[e], block.src_nodes.size());
      ASSERT_LT(block.edge_dst[e], block.dst_count);
      EXPECT_TRUE(graph.has_edge(block.src_nodes[block.edge_src[e]],
                                 block.src_nodes[block.edge_dst[e]]));
    }
  }
  // Layer chaining: layer k's src set is layer k-1's dst set.
  for (std::size_t layer = 1; layer < 3; ++layer) {
    EXPECT_EQ(cg.blocks[layer - 1].dst_count, cg.blocks[layer].src_nodes.size());
    for (std::size_t i = 0; i < cg.blocks[layer].src_nodes.size(); ++i) {
      EXPECT_EQ(cg.blocks[layer - 1].src_nodes[i], cg.blocks[layer].src_nodes[i]);
    }
  }
}

TEST(NeighborSampler, FanoutCapsSampledNeighbors) {
  const CsrGraph graph = test_graph();
  GraphProvider provider(graph);
  const NeighborSampler sampler({3});
  Rng rng(15);
  const std::vector<NodeId> seeds{0, 10, 20};
  const auto cg = sampler.sample(provider, seeds, rng);
  std::vector<int> in_degree(cg.blocks[0].dst_count, 0);
  for (const auto dst : cg.blocks[0].edge_dst) ++in_degree[dst];
  for (std::size_t d = 0; d < cg.blocks[0].dst_count; ++d) {
    EXPECT_LE(in_degree[d], 3);
    EXPECT_EQ(in_degree[d],
              std::min<NodeId>(3, graph.degree(cg.blocks[0].src_nodes[d])));
  }
}

TEST(NeighborSampler, SampledNeighborsAreDistinct) {
  const CsrGraph graph = test_graph();
  GraphProvider provider(graph);
  const NeighborSampler sampler({4});
  Rng rng(16);
  const std::vector<NodeId> seeds{7};
  const auto cg = sampler.sample(provider, seeds, rng);
  std::unordered_set<std::uint32_t> sources;
  for (const auto src : cg.blocks[0].edge_src) EXPECT_TRUE(sources.insert(src).second);
}

TEST(NeighborSampler, FullFanoutMatchesKHopNeighborhood) {
  const CsrGraph graph = test_graph(120, 500, 3);
  GraphProvider provider(graph);
  const NeighborSampler sampler({0, 0});  // full 2-hop expansion
  Rng rng(17);
  const std::vector<NodeId> seeds{3, 8};
  const auto cg = sampler.sample(provider, seeds, rng);
  auto inputs = std::vector<NodeId>(cg.input_nodes().begin(), cg.input_nodes().end());
  std::sort(inputs.begin(), inputs.end());
  const auto expected = graph::k_hop_neighborhood(graph, seeds, 2);
  EXPECT_EQ(inputs, expected);
}

TEST(NeighborSampler, WeightedGraphPropagatesWeights) {
  GraphBuilder builder(3, true);
  builder.add_edge(0, 1, 2.5F);
  builder.add_edge(0, 2, 0.5F);
  const CsrGraph graph = builder.build();
  GraphProvider provider(graph);
  const NeighborSampler sampler({0});
  Rng rng(18);
  const std::vector<NodeId> seeds{0};
  const auto cg = sampler.sample(provider, seeds, rng);
  ASSERT_EQ(cg.blocks[0].num_edges(), 2U);
  float total = 0.0F;
  for (const float w : cg.blocks[0].edge_weight) total += w;
  EXPECT_FLOAT_EQ(total, 3.0F);
}

TEST(NeighborSampler, DeterministicGivenRngState) {
  const CsrGraph graph = test_graph();
  GraphProvider provider(graph);
  const NeighborSampler sampler({5, 5});
  Rng rng1(19);
  Rng rng2(19);
  const std::vector<NodeId> seeds{1, 2, 3};
  const auto a = sampler.sample(provider, seeds, rng1);
  const auto b = sampler.sample(provider, seeds, rng2);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t layer = 0; layer < a.blocks.size(); ++layer) {
    EXPECT_EQ(a.blocks[layer].src_nodes, b.blocks[layer].src_nodes);
    EXPECT_EQ(a.blocks[layer].edge_src, b.blocks[layer].edge_src);
  }
}

TEST(NeighborSampler, EmptySeedsThrows) {
  const CsrGraph graph = test_graph(64, 200);
  GraphProvider provider(graph);
  const NeighborSampler sampler({5});
  Rng rng(20);
  EXPECT_THROW(sampler.sample(provider, {}, rng), std::invalid_argument);
}

TEST(NeighborSampler, IsolatedSeedYieldsLeafBlock) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // node 2 isolated
  const CsrGraph graph = builder.build();
  GraphProvider provider(graph);
  const NeighborSampler sampler({5});
  Rng rng(21);
  const std::vector<NodeId> seeds{2};
  const auto cg = sampler.sample(provider, seeds, rng);
  EXPECT_EQ(cg.blocks[0].num_edges(), 0U);
  EXPECT_EQ(cg.blocks[0].src_nodes.size(), 1U);
}

}  // namespace
}  // namespace splpg::sampling
