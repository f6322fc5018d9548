// Effective resistance of graph edges — exact and approximate.
//
// Exact (Eq. (3) of the paper): r(u,v) = (e_u - e_v)^T L+ (e_u - e_v), with
// L+ the pseudo-inverse of the combinatorial Laplacian. One solver computes
// it: per-edge preconditioned conjugate gradients solve L x = e_u - e_v on a
// sparse CSR Laplacian (tensor/sparse.hpp + tensor/cg.hpp), then
// r = x[u] - x[v]. O(m * nnz * cg_iters) total, double precision.
//
// Approximate (Theorem 2, Lovász): 1/2 (1/du + 1/dv) <= r(u,v) <=
// (1/gamma)(1/du + 1/dv), where gamma is the spectral gap of the normalized
// Laplacian. SpLPG samples edges proportionally to (1/du + 1/dv), which
// needs only node degrees; the exact route only validates that proxy.
#pragma once

#include <vector>

#include "graph/csr_graph.hpp"
#include "tensor/matrix.hpp"
#include "tensor/sparse.hpp"

namespace splpg::util {
class ThreadPool;
}  // namespace splpg::util

namespace splpg::sparsify {

/// Combinatorial Laplacian L = D - A as a dense matrix (weights respected).
/// Duplicate (parallel) edges accumulate, and self-loop entries cancel out
/// of L entirely, so rows always sum to zero.
[[nodiscard]] tensor::Matrix laplacian(const graph::CsrGraph& graph);

/// Combinatorial Laplacian in CSR form (double precision): the operator the
/// CG solver runs on. nnz <= 2m + n; duplicate adjacency entries are
/// merged, self-loops cancel. Rows sum to zero exactly as in the dense
/// `laplacian`.
[[nodiscard]] tensor::SparseMatrix sparse_laplacian(const graph::CsrGraph& graph);

/// Symmetric normalized Laplacian D^-1/2 L D^-1/2 (isolated nodes yield zero
/// rows/columns).
[[nodiscard]] tensor::Matrix normalized_laplacian(const graph::CsrGraph& graph);

/// Exact effective resistance per canonical edge (CG to a relative residual
/// of 1e-10). An edge's endpoints always share a component, so every
/// per-edge system is consistent even on disconnected graphs. The per-edge
/// solves are independent: with a `pool` they fan out one edge per task,
/// with the same bytes as the serial loop at every pool width.
[[nodiscard]] std::vector<double> exact_effective_resistance(const graph::CsrGraph& graph,
                                                             util::ThreadPool* pool = nullptr);

/// Degree-based upper-bound proxy per canonical edge: 1/du + 1/dv.
/// This is what SpLPG's sampler uses (Theorem 2). Degree-0 endpoints (which
/// partition-induced subgraphs can produce) contribute 0 instead of dividing
/// by zero.
[[nodiscard]] std::vector<double> approx_effective_resistance(const graph::CsrGraph& graph);

/// Spectral gap gamma of the normalized Laplacian (Theorem 2): the smallest
/// eigenvalue above a noise tolerance. On a connected graph this is the
/// second-smallest eigenvalue; on a disconnected graph the second-smallest
/// is 0 (one zero per component, plus Jacobi noise that can dip negative),
/// so clamping to the smallest *positive* eigenvalue keeps the 1/gamma
/// upper bound finite and meaningful per component. Returns 0.0 (sentinel:
/// "no spectral gap") when no eigenvalue clears the tolerance — e.g. an
/// edgeless graph. O(n^3) — validation only.
[[nodiscard]] double normalized_laplacian_gamma(const graph::CsrGraph& graph);

}  // namespace splpg::sparsify
