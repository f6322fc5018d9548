// Tests for the sparsify module: exact vs approximate effective resistance
// (Theorem 2 bounds), the Spielman-Srivastava sampler (Theorem 1 weight
// semantics), spectral quality, and partitioned sparsification.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "data/generators.hpp"
#include "sparsify/effective_resistance.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/thread_pool.hpp"

namespace splpg::sparsify {
namespace {

using graph::CsrGraph;
using graph::GraphBuilder;
using graph::NodeId;
using util::Rng;

CsrGraph triangle() {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  return builder.build();
}

CsrGraph path(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

TEST(EffectiveResistance, PathEdgesHaveUnitResistance) {
  // In a tree every edge is a bridge: r = 1 exactly.
  const CsrGraph graph = path(6);
  const auto resistance = exact_effective_resistance(graph);
  for (const double r : resistance) EXPECT_NEAR(r, 1.0, 1e-4);
}

TEST(EffectiveResistance, TriangleIsTwoThirds) {
  // Two parallel routes: 1 Ohm direct, 2 Ohm around -> 2/3.
  const auto resistance = exact_effective_resistance(triangle());
  for (const double r : resistance) EXPECT_NEAR(r, 2.0 / 3.0, 1e-4);
}

TEST(EffectiveResistance, SeriesParallelSquare) {
  // 4-cycle: each edge is 1 Ohm in parallel with a 3 Ohm path -> 3/4.
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(2, 3);
  builder.add_edge(0, 3);
  const auto resistance = exact_effective_resistance(builder.build());
  for (const double r : resistance) EXPECT_NEAR(r, 0.75, 1e-4);
}

TEST(EffectiveResistance, Theorem2BoundsHold) {
  data::SbmParams params;
  params.num_nodes = 60;
  params.num_edges = 240;
  params.num_communities = 4;
  Rng rng(1);
  const CsrGraph graph = data::generate_sbm(params, rng);
  const auto exact = exact_effective_resistance(graph);
  const auto proxy = approx_effective_resistance(graph);
  const double gamma = normalized_laplacian_gamma(graph);
  ASSERT_GT(gamma, 0.0);
  for (std::size_t e = 0; e < exact.size(); ++e) {
    EXPECT_GE(exact[e] + 1e-6, 0.5 * proxy[e]) << "lower bound violated at edge " << e;
    EXPECT_LE(exact[e] - 1e-6, proxy[e] / gamma) << "upper bound violated at edge " << e;
  }
}

TEST(EffectiveResistance, SumOverTreeEdgesEqualsNodesMinusOne) {
  // Foster's theorem specialization: in any connected graph, the sum of edge
  // effective resistances equals n - 1.
  data::SbmParams params;
  params.num_nodes = 40;
  params.num_edges = 150;
  params.num_communities = 2;
  Rng rng(2);
  CsrGraph graph = data::generate_sbm(params, rng);
  // Use the giant component only (Foster needs connectivity).
  const auto resistance = exact_effective_resistance(graph);
  const double total = std::accumulate(resistance.begin(), resistance.end(), 0.0);
  // Allow slack for a handful of disconnected stragglers.
  EXPECT_NEAR(total, static_cast<double>(graph.num_nodes()) - 1.0, 3.0);
}

TEST(Laplacian, RowSumsAreZero) {
  const CsrGraph graph = triangle();
  const auto lap = laplacian(graph);
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 3; ++j) row_sum += lap.at(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
}

TEST(Laplacian, NormalizedGammaOfCompleteGraph) {
  // K_n: normalized Laplacian eigenvalues are 0 and n/(n-1).
  GraphBuilder builder(5);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) builder.add_edge(u, v);
  }
  EXPECT_NEAR(normalized_laplacian_gamma(builder.build()), 5.0 / 4.0, 1e-4);
}

TEST(Sparsifier, PreservesNodeSetAndShrinksEdges) {
  data::SbmParams params;
  params.num_nodes = 500;
  params.num_edges = 5000;
  Rng rng(3);
  const CsrGraph graph = data::generate_sbm(params, rng);
  const EffectiveResistanceSparsifier sparsifier(0.15);
  Rng sparsify_rng(4);
  SparsifyStats stats;
  const CsrGraph sparse = sparsifier.sparsify(graph, sparsify_rng, &stats);
  EXPECT_EQ(sparse.num_nodes(), graph.num_nodes());
  EXPECT_LT(sparse.num_edges(), graph.num_edges() / 4);
  EXPECT_GT(sparse.num_edges(), 0U);
  EXPECT_EQ(stats.kept_edges, sparse.num_edges());
  EXPECT_LE(stats.kept_edges, static_cast<graph::EdgeId>(std::ceil(0.15 * 5000)));  // L draws
  EXPECT_NEAR(stats.removal_ratio,
              1.0 - static_cast<double>(sparse.num_edges()) / graph.num_edges(), 1e-12);
}

TEST(Sparsifier, OutputIsSubsetOfInputEdges) {
  data::SbmParams params;
  params.num_nodes = 200;
  params.num_edges = 1500;
  Rng rng(5);
  const CsrGraph graph = data::generate_sbm(params, rng);
  Rng sparsify_rng(6);
  const CsrGraph sparse = EffectiveResistanceSparsifier(0.2).sparsify(graph, sparsify_rng);
  for (const auto& [u, v] : sparse.edges()) EXPECT_TRUE(graph.has_edge(u, v));
}

TEST(Sparsifier, WeightsPositiveAndTotalNearEdgeCount) {
  // E[sum of output weights] = |E| (each draw contributes 1/(L p_e) with
  // probability p_e, L draws). Checks the Theorem 1 weight bookkeeping.
  data::SbmParams params;
  params.num_nodes = 400;
  params.num_edges = 4000;
  Rng rng(7);
  const CsrGraph graph = data::generate_sbm(params, rng);
  Rng sparsify_rng(8);
  const CsrGraph sparse = EffectiveResistanceSparsifier(0.3).sparsify(graph, sparsify_rng);
  ASSERT_TRUE(sparse.is_weighted());
  double total = 0.0;
  for (const float w : sparse.edge_weights()) {
    EXPECT_GT(w, 0.0F);
    total += w;
  }
  EXPECT_NEAR(total, static_cast<double>(graph.num_edges()),
              0.15 * static_cast<double>(graph.num_edges()));
}

TEST(Sparsifier, DuplicateDrawsSumWeights) {
  // With alpha >> 1 every edge is drawn many times; the summed weight of
  // each edge then concentrates around 1 (= its multiplicity / (L p_e)
  // expectation), and every edge survives.
  const CsrGraph graph = triangle();
  Rng rng(9);
  const CsrGraph sparse = EffectiveResistanceSparsifier(200.0).sparsify(graph, rng);
  EXPECT_EQ(sparse.num_edges(), 3U);
  for (const float w : sparse.edge_weights()) EXPECT_NEAR(w, 1.0F, 0.25F);
}

TEST(Sparsifier, HigherAlphaKeepsMoreEdges) {
  data::SbmParams params;
  params.num_nodes = 300;
  params.num_edges = 3000;
  Rng rng(10);
  const CsrGraph graph = data::generate_sbm(params, rng);
  Rng rng_a(11);
  Rng rng_b(11);
  const auto sparse_a = EffectiveResistanceSparsifier(0.05).sparsify(graph, rng_a);
  const auto sparse_b = EffectiveResistanceSparsifier(0.3).sparsify(graph, rng_b);
  EXPECT_LT(sparse_a.num_edges(), sparse_b.num_edges());
}

TEST(Sparsifier, RemovalRatioTracksAlpha) {
  // alpha = 0.15 removes ~85% of edges (paper §V-A); with-replacement
  // collisions push removal slightly above 1 - alpha.
  data::SbmParams params;
  params.num_nodes = 1000;
  params.num_edges = 10000;
  Rng rng(12);
  const CsrGraph graph = data::generate_sbm(params, rng);
  Rng sparsify_rng(13);
  SparsifyStats stats;
  (void)EffectiveResistanceSparsifier(0.15).sparsify(graph, sparsify_rng, &stats);
  EXPECT_GT(stats.removal_ratio, 0.82);
  EXPECT_LT(stats.removal_ratio, 0.92);
}

TEST(Sparsifier, SpectralQuadraticFormRoughlyPreserved) {
  // With a generous sample budget the sparsified Laplacian's quadratic form
  // should approximate the original on random vectors (Theorem 1 spirit;
  // the degree proxy adds distortion, so tolerances are loose).
  data::SbmParams params;
  params.num_nodes = 120;
  params.num_edges = 2400;
  Rng rng(14);
  const CsrGraph graph = data::generate_sbm(params, rng);
  Rng sparsify_rng(15);
  const CsrGraph sparse = EffectiveResistanceSparsifier(2.0).sparsify(graph, sparsify_rng);
  const auto lap = laplacian(graph);
  const auto lap_sparse = laplacian(sparse);
  Rng vec_rng(16);
  for (int trial = 0; trial < 5; ++trial) {
    tensor::Matrix x(120, 1);
    for (float& value : x.data()) value = static_cast<float>(vec_rng.normal(0.0, 1.0));
    const double original = tensor::matmul_tn(x, tensor::matmul(lap, x)).at(0, 0);
    const double approx = tensor::matmul_tn(x, tensor::matmul(lap_sparse, x)).at(0, 0);
    ASSERT_GT(original, 0.0);
    EXPECT_NEAR(approx / original, 1.0, 0.35) << "trial " << trial;
  }
}

TEST(Sparsifier, PartitionedKeepsCrossEdgesInBothParts) {
  data::SbmParams params;
  params.num_nodes = 200;
  params.num_edges = 1600;
  Rng rng(17);
  const CsrGraph graph = data::generate_sbm(params, rng);
  std::vector<std::uint32_t> assignment(200);
  for (NodeId v = 0; v < 200; ++v) assignment[v] = v % 2;

  Rng sparsify_rng(18);
  std::vector<SparsifyStats> stats;
  const auto parts = EffectiveResistanceSparsifier(0.5).sparsify_partitions(
      graph, assignment, 2, sparsify_rng, &stats);
  ASSERT_EQ(parts.size(), 2U);
  ASSERT_EQ(stats.size(), 2U);

  for (std::uint32_t part = 0; part < 2; ++part) {
    EXPECT_EQ(stats[part].kept_edges, parts[part].num_edges());
    EXPECT_EQ(parts[part].num_nodes(), graph.num_nodes());  // global id space
    for (const auto& [u, v] : parts[part].edges()) {
      EXPECT_TRUE(assignment[u] == part || assignment[v] == part);
      EXPECT_TRUE(graph.has_edge(u, v));
    }
  }
}

TEST(Sparsifier, DeterministicGivenRngState) {
  data::SbmParams params;
  params.num_nodes = 150;
  params.num_edges = 900;
  Rng rng(19);
  const CsrGraph graph = data::generate_sbm(params, rng);
  Rng rng1(20);
  Rng rng2(20);
  const auto a = EffectiveResistanceSparsifier(0.15).sparsify(graph, rng1);
  const auto b = EffectiveResistanceSparsifier(0.15).sparsify(graph, rng2);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edges()[e], b.edges()[e]);
    EXPECT_FLOAT_EQ(a.edge_weights()[e], b.edge_weights()[e]);
  }
}

TEST(Sparsifier, InvalidAlphaThrows) {
  // NaN passes an `alpha <= 0` check, and +inf turns the draw count into a
  // cast of infinity; every one must fail at construction, naming alpha.
  for (const double alpha : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const auto kind : {SparsifierKind::kEffectiveResistance, SparsifierKind::kUniform}) {
      try {
        SparsifyConfig config;
        config.alpha = alpha;
        (void)make_sparsifier(kind, config);
        ADD_FAILURE() << "alpha " << alpha << " was accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find("alpha"), std::string::npos) << error.what();
      }
    }
  }
}

TEST(Sparsifier, EmptyGraphYieldsEmptyOutput) {
  const CsrGraph graph(10, {});
  Rng rng(21);
  const auto sparse = EffectiveResistanceSparsifier(0.15).sparsify(graph, rng);
  EXPECT_EQ(sparse.num_nodes(), 10U);
  EXPECT_EQ(sparse.num_edges(), 0U);
}


// ---- ThreadPool parallelism (bit-exact determinism contract) ----

TEST(Sparsifier, ParallelPartitionsBitIdenticalToSerial) {
  // 8 partitions, serial (1 thread) vs pooled (4 threads), same rng seed:
  // per-partition pre-split rng streams make the outputs the same bytes.
  data::SbmParams params;
  params.num_nodes = 240;
  params.num_edges = 1900;
  params.num_communities = 8;
  Rng rng(31);
  const CsrGraph graph = data::generate_sbm(params, rng);
  std::vector<std::uint32_t> assignment(params.num_nodes);
  for (NodeId v = 0; v < params.num_nodes; ++v) assignment[v] = v % 8;

  Rng serial_rng(33);
  Rng pooled_rng(33);
  std::vector<SparsifyStats> serial_stats;
  std::vector<SparsifyStats> pooled_stats;
  const auto serial = EffectiveResistanceSparsifier(0.3, 1).sparsify_partitions(
      graph, assignment, 8, serial_rng, &serial_stats);
  const auto pooled = EffectiveResistanceSparsifier(0.3, 4).sparsify_partitions(
      graph, assignment, 8, pooled_rng, &pooled_stats);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t part = 0; part < serial.size(); ++part) {
    ASSERT_EQ(serial[part].num_edges(), pooled[part].num_edges()) << "part " << part;
    for (std::size_t e = 0; e < serial[part].num_edges(); ++e) {
      EXPECT_EQ(serial[part].edges()[e], pooled[part].edges()[e]);
      EXPECT_EQ(serial[part].edge_weights()[e], pooled[part].edge_weights()[e]);  // bit-exact
    }
    EXPECT_EQ(serial_stats[part].kept_edges, pooled_stats[part].kept_edges);
    EXPECT_EQ(serial_stats[part].removal_ratio, pooled_stats[part].removal_ratio);
  }
}

TEST(Sparsifier, ZeroThreadsMeansHardwareConcurrency) {
  // num_threads = 0 resolves to hardware concurrency inside the pool; the
  // result must still match the serial bytes.
  data::SbmParams params;
  params.num_nodes = 120;
  params.num_edges = 700;
  Rng rng(35);
  const CsrGraph graph = data::generate_sbm(params, rng);
  std::vector<std::uint32_t> assignment(params.num_nodes);
  for (NodeId v = 0; v < params.num_nodes; ++v) assignment[v] = v % 4;
  Rng serial_rng(36);
  Rng pooled_rng(36);
  const auto serial =
      UniformSparsifier(0.4, 1).sparsify_partitions(graph, assignment, 4, serial_rng, nullptr);
  const auto pooled =
      UniformSparsifier(0.4, 0).sparsify_partitions(graph, assignment, 4, pooled_rng, nullptr);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t part = 0; part < serial.size(); ++part) {
    ASSERT_EQ(serial[part].num_edges(), pooled[part].num_edges());
    for (std::size_t e = 0; e < serial[part].num_edges(); ++e) {
      EXPECT_EQ(serial[part].edges()[e], pooled[part].edges()[e]);
      EXPECT_EQ(serial[part].edge_weights()[e], pooled[part].edge_weights()[e]);
    }
  }
}

TEST(EffectiveResistance, PooledKernelsMatchSerialBitwise) {
  data::SbmParams params;
  params.num_nodes = 80;
  params.num_edges = 320;
  Rng rng(37);
  const CsrGraph graph = data::generate_sbm(params, rng);
  util::ThreadPool pool(4);

  const auto er_serial = exact_effective_resistance(graph);
  const auto er_pooled = exact_effective_resistance(graph, &pool);
  ASSERT_EQ(er_serial.size(), er_pooled.size());
  for (std::size_t e = 0; e < er_serial.size(); ++e) {
    EXPECT_EQ(er_serial[e], er_pooled[e]);
  }
}

TEST(EffectiveResistance, ApproxHandlesIsolatedNodes) {
  // Nodes 3 and 4 are isolated; the degree proxy must stay finite and the
  // partitioned sparsifier must accept a partition that holds only isolated
  // nodes (its induced subgraph is empty).
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  const CsrGraph graph = builder.build();

  const auto proxy = approx_effective_resistance(graph);
  ASSERT_EQ(proxy.size(), graph.num_edges());
  for (const double p : proxy) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GT(p, 0.0);
  }

  const std::vector<std::uint32_t> assignment = {0, 0, 0, 1, 1};
  Rng rng(39);
  std::vector<SparsifyStats> stats;
  const auto parts = EffectiveResistanceSparsifier(0.5).sparsify_partitions(
      graph, assignment, 2, rng, &stats);
  ASSERT_EQ(parts.size(), 2U);
  EXPECT_GT(parts[0].num_edges(), 0U);
  EXPECT_EQ(parts[1].num_edges(), 0U);  // isolated-node partition: empty, no crash
}

}  // namespace
}  // namespace splpg::sparsify
