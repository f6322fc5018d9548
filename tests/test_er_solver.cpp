// Tests for the sparse effective-resistance solver stack: CSR Laplacian
// construction (multigraph / self-loop / disconnected regressions), the
// deflated Jacobi-PCG solver, and per-edge CG resistances — checked against
// analytic values, a dense pseudo-inverse reference built here, Foster's
// theorem and the repo's bit-identical-across-thread-widths contract.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "data/generators.hpp"
#include "graph/algorithms.hpp"
#include "sparsify/effective_resistance.hpp"
#include "tensor/cg.hpp"
#include "tensor/eigen.hpp"
#include "tensor/sparse.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace splpg::sparsify {
namespace {

using graph::CsrGraph;
using graph::GraphBuilder;
using graph::NodeId;
using tensor::SparseMatrix;
using util::Rng;

CsrGraph path(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId v = 0; v + 1 < n; ++v) builder.add_edge(v, v + 1);
  return builder.build();
}

CsrGraph complete(NodeId n) {
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) builder.add_edge(u, v);
  }
  return builder.build();
}

/// Two disjoint triangles: {0,1,2} and {3,4,5}.
CsrGraph two_triangles() {
  GraphBuilder builder(6);
  builder.add_edge(0, 1);
  builder.add_edge(1, 2);
  builder.add_edge(0, 2);
  builder.add_edge(3, 4);
  builder.add_edge(4, 5);
  builder.add_edge(3, 5);
  return builder.build();
}

/// The dense reference: eigendecompose L, pseudo-invert, read
/// r = L+_uu + L+_vv - 2 L+_uv per canonical edge. O(n^3), float
/// eigenvectors — good to ~1e-6 relative on small graphs.
std::vector<double> dense_effective_resistance(const CsrGraph& graph) {
  const auto pinv = tensor::symmetric_pseudo_inverse(laplacian(graph));
  std::vector<double> resistance;
  for (const auto& [u, v] : graph.edges()) {
    resistance.push_back(static_cast<double>(pinv.at(u, u)) + pinv.at(v, v) -
                         2.0 * pinv.at(u, v));
  }
  return resistance;
}

// ---- sparse Laplacian construction ----

TEST(SparseLaplacian, MatchesDenseOnSimpleGraph) {
  data::SbmParams params;
  params.num_nodes = 50;
  params.num_edges = 220;
  Rng rng(1);
  const CsrGraph graph = data::generate_sbm(params, rng);
  const auto dense = laplacian(graph);
  const auto sparse = sparse_laplacian(graph);
  ASSERT_EQ(sparse.rows(), graph.num_nodes());
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    std::vector<double> dense_row(graph.num_nodes(), 0.0);
    for (NodeId j = 0; j < graph.num_nodes(); ++j) dense_row[j] = dense.at(i, j);
    std::vector<double> sparse_row(graph.num_nodes(), 0.0);
    const auto [cols, vals] = sparse.row(i);
    for (std::size_t k = 0; k < cols.size(); ++k) sparse_row[cols[k]] = vals[k];
    for (NodeId j = 0; j < graph.num_nodes(); ++j) {
      EXPECT_NEAR(dense_row[j], sparse_row[j], 1e-6) << "entry (" << i << ", " << j << ")";
    }
  }
}

TEST(SparseLaplacian, DuplicateEdgesAccumulate) {
  // Parallel edges are legal in directly constructed CsrGraphs (relaxed io
  // loads, sparsifier output before weight-summing). Regression: the dense
  // laplacian used to *assign* -w per adjacency entry, so the last copy won
  // while the degree summed all of them — rows stopped summing to zero.
  const CsrGraph graph(3, {{0, 1}, {0, 1}, {1, 2}}, {2.0F, 3.0F, 1.0F});
  const auto dense = laplacian(graph);
  EXPECT_FLOAT_EQ(dense.at(0, 1), -5.0F);  // 2 + 3 accumulated, not 3 overwritten
  EXPECT_FLOAT_EQ(dense.at(0, 0), 5.0F);
  EXPECT_FLOAT_EQ(dense.at(1, 1), 6.0F);
  for (NodeId i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (NodeId j = 0; j < 3; ++j) row_sum += dense.at(i, j);
    EXPECT_NEAR(row_sum, 0.0, 1e-6) << "row " << i;
  }

  // The CSR Laplacian merges the duplicates into one entry with the same sum.
  const auto sparse = sparse_laplacian(graph);
  EXPECT_EQ(sparse.nnz(), 3U + 4U);  // 3 diagonals + {0-1, 1-0, 1-2, 2-1}
  for (NodeId i = 0; i < 3; ++i) {
    const auto [cols, vals] = sparse.row(i);
    double row_sum = 0.0;
    for (const double v : vals) row_sum += v;
    EXPECT_NEAR(row_sum, 0.0, 1e-12) << "row " << i;
    std::vector<double> expanded(3, 0.0);
    for (std::size_t k = 0; k < cols.size(); ++k) expanded[cols[k]] = vals[k];
    for (NodeId j = 0; j < 3; ++j) EXPECT_NEAR(expanded[j], dense.at(i, j), 1e-6);
  }
}

TEST(SparseLaplacian, UnweightedDuplicateEdgesCountMultiplicity) {
  const CsrGraph graph(3, {{0, 1}, {0, 1}, {1, 2}});
  const auto dense = laplacian(graph);
  EXPECT_FLOAT_EQ(dense.at(0, 1), -2.0F);
  EXPECT_FLOAT_EQ(dense.at(0, 0), 2.0F);
  const auto sparse = sparse_laplacian(graph);
  const auto [cols, vals] = sparse.row(0);
  ASSERT_EQ(cols.size(), 2U);  // diagonal + merged (0,1)
  EXPECT_EQ(cols[0], 0U);
  EXPECT_NEAR(vals[0], 2.0, 1e-12);
  EXPECT_EQ(cols[1], 1U);
  EXPECT_NEAR(vals[1], -2.0, 1e-12);
}

TEST(SparseLaplacian, SelfLoopsCancelOutOfLaplacian) {
  // GraphBuilder drops self-loops before the CsrGraph ever sees them; the
  // Laplacian of a graph built with loop requests equals the loop-free one
  // (a loop adds w to both A_uu and D_uu, cancelling out of L = D - A).
  GraphBuilder with_loops(3);
  with_loops.add_edge(0, 1);
  with_loops.add_edge(1, 1);  // dropped
  with_loops.add_edge(2, 2);  // dropped
  with_loops.add_edge(1, 2);
  GraphBuilder without(3);
  without.add_edge(0, 1);
  without.add_edge(1, 2);
  const auto lap_a = laplacian(with_loops.build());
  const auto lap_b = laplacian(without.build());
  for (NodeId i = 0; i < 3; ++i) {
    for (NodeId j = 0; j < 3; ++j) EXPECT_EQ(lap_a.at(i, j), lap_b.at(i, j));
  }
}

TEST(SparseLaplacian, DisconnectedRowSumsAreZero) {
  const CsrGraph graph = two_triangles();
  const auto dense = laplacian(graph);
  const auto sparse = sparse_laplacian(graph);
  for (NodeId i = 0; i < graph.num_nodes(); ++i) {
    double dense_sum = 0.0;
    for (NodeId j = 0; j < graph.num_nodes(); ++j) dense_sum += dense.at(i, j);
    EXPECT_NEAR(dense_sum, 0.0, 1e-6);
    const auto [cols, vals] = sparse.row(i);
    double sparse_sum = 0.0;
    for (const double v : vals) sparse_sum += v;
    EXPECT_NEAR(sparse_sum, 0.0, 1e-12);
  }
}

TEST(SparseLaplacian, IsolatedNodeRowIsSingleZeroDiagonal) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1);
  const auto sparse = sparse_laplacian(builder.build());
  const auto [cols, vals] = sparse.row(3);
  ASSERT_EQ(cols.size(), 1U);
  EXPECT_EQ(cols[0], 3U);
  EXPECT_EQ(vals[0], 0.0);
  EXPECT_EQ(sparse.diagonal(3), 0.0);
}

// ---- SparseMatrix / PCG ----

TEST(SparseCg, SolvesDiagonallyDominantSystem) {
  // 3x3 SPD system with known solution: A = tridiag(-1, 4, -1), b = A * [1,2,3].
  const SparseMatrix a(3, 3, {0, 2, 5, 7}, {0, 1, 0, 1, 2, 1, 2},
                       {4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0});
  const std::vector<double> b = {2.0, 4.0, 10.0};
  std::vector<double> x(3, 0.0);
  tensor::CgOptions options;
  options.deflate_ones = false;  // nonsingular system
  const auto result = tensor::pcg_solve(a, b, x, options);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(x[0], 1.0, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
  EXPECT_NEAR(x[2], 3.0, 1e-9);
}

TEST(SparseCg, ZeroRhsConvergesImmediately) {
  const auto lap = sparse_laplacian(path(5));
  const std::vector<double> b(5, 0.0);
  std::vector<double> x(5, 0.0);
  const auto result = tensor::pcg_solve(lap, b, x);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0U);
  for (const double value : x) EXPECT_EQ(value, 0.0);
}

TEST(SparseCg, LaplacianSolveReportsConvergence) {
  const auto lap = sparse_laplacian(path(16));
  std::vector<double> b(16, 0.0);
  b[0] = 1.0;
  b[15] = -1.0;
  std::vector<double> x(16, 0.0);
  const auto result = tensor::pcg_solve(lap, b, x);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.relative_residual, 1e-10);
  // End-to-end resistance of a 15-edge unit path is 15 Ohm.
  EXPECT_NEAR(x[0] - x[15], 15.0, 1e-8);
}

TEST(SparseCg, IterationCapReportsNotConverged) {
  const auto lap = sparse_laplacian(path(64));
  std::vector<double> b(64, 0.0);
  b[0] = 1.0;
  b[63] = -1.0;
  std::vector<double> x(64, 0.0);
  tensor::CgOptions options;
  options.max_iterations = 2;  // a 63-edge path needs ~n iterations
  const auto result = tensor::pcg_solve(lap, b, x, options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 2U);
  EXPECT_GT(result.relative_residual, 0.0);
}

// ---- exact effective resistance: CG vs analytic vs dense reference ----

TEST(ErSolver, CgMatchesAnalyticValues) {
  // Tree edges are bridges (r = 1); triangle = 2/3; 4-cycle = 3/4; K_n = 2/n.
  for (const double r : exact_effective_resistance(path(6))) {
    EXPECT_NEAR(r, 1.0, 1e-8);
  }
  for (const double r : exact_effective_resistance(complete(3))) {
    EXPECT_NEAR(r, 2.0 / 3.0, 1e-8);
  }
  GraphBuilder square(4);
  square.add_edge(0, 1);
  square.add_edge(1, 2);
  square.add_edge(2, 3);
  square.add_edge(0, 3);
  for (const double r : exact_effective_resistance(square.build())) {
    EXPECT_NEAR(r, 0.75, 1e-8);
  }
  for (const double r : exact_effective_resistance(complete(8))) {
    EXPECT_NEAR(r, 0.25, 1e-8);
  }
}

TEST(ErSolver, CgHonorsEdgeWeights) {
  // Two parallel routes between 0 and 1: a direct 2-Ohm conductance edge
  // (weight 2 => resistance 1/2) in parallel with a unit edge through node 2
  // (resistance 2) -> 1 / (2 + 1/2) = 0.4.
  GraphBuilder builder(3, /*weighted=*/true);
  builder.add_edge(0, 1, 2.0F);
  builder.add_edge(0, 2, 1.0F);
  builder.add_edge(1, 2, 1.0F);
  const auto resistance = exact_effective_resistance(builder.build());
  // Canonical edge order: (0,1), (0,2), (1,2).
  EXPECT_NEAR(resistance[0], 0.4, 1e-8);
}

TEST(ErSolver, CgMatchesDensePseudoInverseOnSeededGraphs) {
  // Randomized property test: on seeded SBM graphs the CG route agrees with
  // the dense pseudo-inverse oracle to 1e-6 relative — which is the oracle's
  // own float-eigenvector noise floor; CG itself is validated to 1e-8
  // against analytic values above. Pooled runs at widths {2, 4, 7} must
  // reproduce the serial bytes exactly.
  for (const std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    data::SbmParams params;
    params.num_nodes = 70;
    params.num_edges = 280;
    params.num_communities = 4;
    Rng rng(seed);
    const CsrGraph graph = data::generate_sbm(params, rng);
    const auto dense = dense_effective_resistance(graph);
    const auto cg = exact_effective_resistance(graph);
    ASSERT_EQ(dense.size(), cg.size());
    for (std::size_t e = 0; e < dense.size(); ++e) {
      EXPECT_NEAR(cg[e] / dense[e], 1.0, 1e-6)
          << "seed " << seed << " edge " << e << " dense=" << dense[e] << " cg=" << cg[e];
    }
    for (const std::size_t width : {2U, 4U, 7U}) {
      util::ThreadPool pool(width);
      const auto pooled = exact_effective_resistance(graph, &pool);
      for (std::size_t e = 0; e < cg.size(); ++e) {
        ASSERT_EQ(cg[e], pooled[e]) << "seed " << seed << " edge " << e << " width " << width;
      }
    }
  }
}

TEST(ErSolver, CgBitIdenticalAcrossThreadWidths) {
  // The repo-wide determinism contract: pooled solves are the same bytes as
  // serial at widths {1, 2, 4, 7}.
  data::SbmParams params;
  params.num_nodes = 150;
  params.num_edges = 700;
  Rng rng(21);
  const CsrGraph graph = data::generate_sbm(params, rng);
  const auto cg_serial = exact_effective_resistance(graph);
  for (const std::size_t width : {2U, 4U, 7U}) {
    util::ThreadPool pool(width);
    const auto cg_pooled = exact_effective_resistance(graph, &pool);
    ASSERT_EQ(cg_pooled.size(), cg_serial.size());
    for (std::size_t e = 0; e < cg_serial.size(); ++e) {
      ASSERT_EQ(cg_serial[e], cg_pooled[e]) << "cg edge " << e << " width " << width;
    }
  }
}

TEST(ErSolver, CgHandlesDisconnectedGraphs) {
  // Every edge's endpoints share a component, so each per-edge system is
  // consistent; both triangles read 2/3 like a lone triangle would.
  const auto resistance = exact_effective_resistance(two_triangles());
  ASSERT_EQ(resistance.size(), 6U);
  for (const double r : resistance) EXPECT_NEAR(r, 2.0 / 3.0, 1e-8);
}

TEST(ErSolver, CgHandlesMultigraphEdges) {
  // Two unit parallel edges between 0 and 1: conductances add, r = 1/2 for
  // both canonical copies. The pre-fix Laplacian (assignment instead of
  // accumulation) made this graph's rows non-singular-consistent.
  const CsrGraph graph(2, {{0, 1}, {0, 1}});
  const auto resistance = exact_effective_resistance(graph);
  ASSERT_EQ(resistance.size(), 2U);
  EXPECT_NEAR(resistance[0], 0.5, 1e-8);
  EXPECT_NEAR(resistance[1], 0.5, 1e-8);
}

TEST(ErSolver, FosterSumMatchesNodesMinusComponents) {
  // Foster's theorem: sum of edge effective resistances = n - #components.
  data::SbmParams params;
  params.num_nodes = 120;
  params.num_edges = 520;
  params.num_communities = 3;
  Rng rng(31);
  const CsrGraph graph = data::generate_sbm(params, rng);
  const auto components = graph::connected_components(graph);
  const auto resistance = exact_effective_resistance(graph);
  const double total = std::accumulate(resistance.begin(), resistance.end(), 0.0);
  EXPECT_NEAR(total, static_cast<double>(graph.num_nodes()) - components.count, 1e-5);
}

// ---- gamma regressions ----

TEST(ErSolver, GammaClampsToSmallestPositiveEigenvalueWhenDisconnected) {
  // Two triangles: normalized-Laplacian spectrum {0, 0, 1.5, 1.5, 1.5, 1.5}.
  // The raw second-smallest eigenvalue is 0 (pre-fix return value, which
  // poisoned the 1/gamma proxy); the clamped gamma is the in-component gap.
  EXPECT_NEAR(normalized_laplacian_gamma(two_triangles()), 1.5, 1e-4);
}

TEST(ErSolver, GammaReturnsSentinelWithoutSpectralGap) {
  // Edgeless graph: every eigenvalue is 0 -> documented 0.0 sentinel.
  EXPECT_EQ(normalized_laplacian_gamma(CsrGraph(5, {})), 0.0);
}

TEST(ErSolver, GammaBoundsHoldOnDisconnectedGraph) {
  // With the clamped gamma, Theorem 2's upper bound holds per component on a
  // disconnected graph (pre-fix it was a division by ~0).
  const CsrGraph graph = two_triangles();
  const double gamma = normalized_laplacian_gamma(graph);
  ASSERT_GT(gamma, 0.0);
  const auto exact = exact_effective_resistance(graph);
  const auto proxy = approx_effective_resistance(graph);
  for (std::size_t e = 0; e < exact.size(); ++e) {
    EXPECT_GE(exact[e] + 1e-9, 0.5 * proxy[e]);
    EXPECT_LE(exact[e] - 1e-9, proxy[e] / gamma);
  }
}

}  // namespace
}  // namespace splpg::sparsify
