#include "sparsify/effective_resistance.hpp"

#include <cmath>
#include <utility>

#include "tensor/cg.hpp"
#include "tensor/eigen.hpp"
#include "util/thread_pool.hpp"

namespace splpg::sparsify {

using graph::CsrGraph;
using graph::NodeId;
using tensor::Matrix;
using tensor::SparseMatrix;

Matrix laplacian(const CsrGraph& graph) {
  const NodeId n = graph.num_nodes();
  Matrix lap(n, n);
  // Row u depends only on u's adjacency: off-diagonals are -w per neighbor,
  // the diagonal is u's weighted degree.
  for (NodeId u = 0; u < n; ++u) {
    const auto neighbors = graph.neighbors(u);
    const auto weights = graph.neighbor_weights(u);
    float degree = 0.0F;
    for (std::size_t k = 0; k < neighbors.size(); ++k) {
      const float w = weights.empty() ? 1.0F : weights[k];
      // A self-loop contributes w to A_uu and w to D_uu, so it cancels out
      // of L = D - A entirely: skip both sides. (Defensive — CsrGraph
      // forbids loops today, but the Laplacian must not double-count one if
      // a relaxed loader ever hands one through.)
      if (neighbors[k] == u) continue;
      // Accumulate rather than assign: duplicate (parallel) edges are legal
      // in directly constructed CsrGraphs, and an assignment would keep only
      // the last copy while the degree sums all of them — breaking the
      // row-sums-to-zero invariant.
      lap.at(u, neighbors[k]) -= w;
      degree += w;
    }
    lap.at(u, u) = degree;
  }
  return lap;
}

SparseMatrix sparse_laplacian(const CsrGraph& graph) {
  const NodeId n = graph.num_nodes();
  std::vector<std::size_t> offsets;
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  offsets.reserve(static_cast<std::size_t>(n) + 1);
  cols.reserve(graph.total_degree() + n);
  vals.reserve(graph.total_degree() + n);
  offsets.push_back(0);

  // Scratch for one row of merged off-diagonal entries.
  std::vector<std::pair<std::uint32_t, double>> row;
  for (NodeId u = 0; u < n; ++u) {
    const auto neighbors = graph.neighbors(u);
    const auto weights = graph.neighbor_weights(u);
    row.clear();
    double degree = 0.0;
    // Neighbor lists are sorted, so duplicate (parallel) edges are adjacent:
    // merge them into one entry whose weight is the sum, mirroring the dense
    // laplacian's accumulation. Self-loops cancel out of L and are skipped.
    std::size_t k = 0;
    while (k < neighbors.size()) {
      const NodeId v = neighbors[k];
      double w = weights.empty() ? 1.0 : weights[k];
      while (k + 1 < neighbors.size() && neighbors[k + 1] == v) {
        ++k;
        w += weights.empty() ? 1.0 : weights[k];
      }
      ++k;
      if (v == u) continue;
      row.emplace_back(v, -w);
      degree += w;
    }
    // Emit in ascending column order with the diagonal spliced in.
    bool diagonal_emitted = false;
    for (const auto& [v, w] : row) {
      if (!diagonal_emitted && v > u) {
        cols.push_back(u);
        vals.push_back(degree);
        diagonal_emitted = true;
      }
      cols.push_back(v);
      vals.push_back(w);
    }
    if (!diagonal_emitted) {
      cols.push_back(u);
      vals.push_back(degree);
    }
    offsets.push_back(cols.size());
  }
  return SparseMatrix(n, n, std::move(offsets), std::move(cols), std::move(vals));
}

Matrix normalized_laplacian(const CsrGraph& graph) {
  const NodeId n = graph.num_nodes();
  // Weighted degrees.
  std::vector<double> degree(n, 0.0);
  const auto edges = graph.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const auto [u, v] = edges[e];
    const double w = graph.edge_weight(e);
    degree[u] += w;
    degree[v] += w;
  }
  const Matrix lap = laplacian(graph);
  Matrix out(n, n);
  for (NodeId i = 0; i < n; ++i) {
    const double di = degree[i];
    if (di <= 0.0) continue;
    for (NodeId j = 0; j < n; ++j) {
      const double dj = degree[j];
      if (dj <= 0.0) continue;
      out.at(i, j) = static_cast<float>(lap.at(i, j) / std::sqrt(di * dj));
    }
  }
  return out;
}

std::vector<double> exact_effective_resistance(const CsrGraph& graph, util::ThreadPool* pool) {
  const SparseMatrix lap = sparse_laplacian(graph);
  const std::size_t n = graph.num_nodes();
  const auto edges = graph.edges();
  // Per-edge CG solves of L x = e_u - e_v. Each edge writes only its own
  // slot, so the fan-out across `pool` is bit-identical to serial.
  std::vector<double> resistance(edges.size());
  util::for_each_index(pool, edges.size(), [&](std::size_t e) {
    const auto [u, v] = edges[e];
    std::vector<double> b(n, 0.0);
    std::vector<double> x(n, 0.0);
    b[u] = 1.0;
    b[v] = -1.0;
    // b sums to zero within u's component (u and v share it — they are an
    // edge's endpoints), so the singular system is consistent and CG
    // converges to the pseudo-inverse solution even on disconnected graphs.
    (void)tensor::pcg_solve(lap, b, x);
    resistance[e] = x[u] - x[v];
  });
  return resistance;
}

std::vector<double> approx_effective_resistance(const CsrGraph& graph) {
  std::vector<double> proxy;
  proxy.reserve(graph.num_edges());
  for (const auto& [u, v] : graph.edges()) {
    const double du = graph.degree(u);
    const double dv = graph.degree(v);
    // Degree-0 endpoints contribute 0 instead of 1/0: partition-induced
    // subgraphs keep the global node set, so callers may hand us graphs
    // whose degree array has holes (a release build must not divide by
    // zero even if the edge list and degrees disagree).
    const double inv_du = du > 0.0 ? 1.0 / du : 0.0;
    const double inv_dv = dv > 0.0 ? 1.0 / dv : 0.0;
    proxy.push_back(inv_du + inv_dv);
  }
  return proxy;
}

double normalized_laplacian_gamma(const CsrGraph& graph) {
  const auto decomposition = tensor::symmetric_eigen(normalized_laplacian(graph));
  // The spectrum has one exact zero per connected component (and Jacobi
  // noise can push those slightly negative), so eigenvalues[1] is 0 on any
  // disconnected graph — which would blow up the 1/gamma upper bound.
  // Clamp to the smallest eigenvalue above a noise floor instead; the
  // normalized-Laplacian spectrum lives in [0, 2], so 1e-6 separates real
  // gaps from rotation residue at every graph size we validate on.
  constexpr double kNoiseFloor = 1e-6;
  for (const double value : decomposition.eigenvalues) {
    if (value > kNoiseFloor) return value;
  }
  return 0.0;  // sentinel: no spectral gap at all (e.g. an edgeless graph)
}

}  // namespace splpg::sparsify
