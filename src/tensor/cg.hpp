// Preconditioned conjugate gradients for symmetric positive-semidefinite
// sparse systems — built for graph Laplacians.
//
// L is singular: its null space contains the all-ones vector (one indicator
// per connected component). For a consistent right-hand side (b orthogonal
// to the null space — e.g. b = e_u - e_v with u, v in one component, the
// effective-resistance case) CG converges to the pseudo-inverse solution.
// `deflate_ones` additionally projects the global all-ones component out of
// the residual and the Krylov directions each iteration, killing the
// rounding drift that would otherwise accumulate along the null space. The
// projection shifts iterates by a constant vector at most, which cancels in
// every difference x[u] - x[v] — exactly what resistance reads off.
//
// Preconditioner: Jacobi (inverse diagonal), the standard cheap choice for
// diagonally dominant Laplacians; rows with non-positive diagonal (isolated
// nodes) fall back to the identity.
//
// Determinism: every vector update, reduction and spmv row runs serially in
// index order. Callers that need throughput solve independent systems in
// parallel (exact_effective_resistance fans out one solve per edge).
#pragma once

#include <cstddef>
#include <span>

#include "tensor/sparse.hpp"

namespace splpg::tensor {

struct CgOptions {
  /// Terminate when ||r||_2 <= tolerance * ||b||_2.
  double tolerance = 1e-10;
  /// Iteration cap; 0 picks 10 * n + 100 (generous — Jacobi-PCG on the
  /// Laplacians we solve converges in tens to a few hundred iterations).
  std::size_t max_iterations = 0;
  /// Project the all-ones null-space component out of residual and search
  /// directions (see file comment). Keep on for Laplacians; turn off for
  /// nonsingular systems.
  bool deflate_ones = true;
};

struct CgResult {
  std::size_t iterations = 0;
  /// ||r||_2 / ||b||_2 at exit (0 when b == 0).
  double relative_residual = 0.0;
  bool converged = false;
};

/// Solves A x = b for symmetric positive-semidefinite A, starting from the
/// initial guess in `x` (zeros give the standard cold start). `x` and `b`
/// must have a.rows() entries and must not alias. Returns iteration count
/// and the achieved residual; `converged` is false when the iteration cap
/// was hit or CG broke down (p^T A p <= 0, i.e. A was not PSD or the system
/// was inconsistent).
CgResult pcg_solve(const SparseMatrix& a, std::span<const double> b, std::span<double> x,
                   const CgOptions& options = {});

}  // namespace splpg::tensor
