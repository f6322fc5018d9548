#include "tensor/cg.hpp"

#include <cassert>
#include <cmath>
#include <vector>

#include "tensor/vec.hpp"

namespace splpg::tensor {

namespace {

double dot(std::span<const double> a, std::span<const double> b) {
  return vec_kernels().dot_f64(a.data(), b.data(), a.size());
}

/// Subtracts the mean, projecting out the all-ones component.
void deflate(std::span<double> v) {
  double mean = 0.0;
  for (const double value : v) mean += value;
  mean /= static_cast<double>(v.size());
  for (double& value : v) value -= mean;
}

}  // namespace

CgResult pcg_solve(const SparseMatrix& a, std::span<const double> b, std::span<double> x,
                   const CgOptions& options) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  assert(b.size() == n && x.size() == n);

  CgResult result;
  const double b_norm = std::sqrt(dot(b, b));
  if (b_norm == 0.0) {
    // Consistent only with x in the null space; the zero/constant guess is
    // already a solution.
    result.converged = true;
    return result;
  }

  const std::size_t max_iterations =
      options.max_iterations > 0 ? options.max_iterations : 10 * n + 100;
  const double target = options.tolerance * b_norm;

  // Jacobi preconditioner: inverse diagonal, identity on degenerate rows.
  std::vector<double> inv_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a.diagonal(i);
    inv_diag[i] = d > 0.0 ? 1.0 / d : 1.0;
  }

  std::vector<double> r(n);
  std::vector<double> z(n);
  std::vector<double> p(n);
  std::vector<double> ap(n);

  // r = b - A x.
  a.spmv(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];
  if (options.deflate_ones) deflate(r);

  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p.assign(z.begin(), z.end());
  double rz = dot(r, z);

  double r_norm = std::sqrt(dot(r, r));
  while (r_norm > target && result.iterations < max_iterations) {
    a.spmv(p, ap);
    // L maps everything orthogonal to ones; deflating A p removes the
    // rounding-induced ones component before it can feed back into p.
    if (options.deflate_ones) deflate(ap);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) {
      // Breakdown: A not PSD on the current subspace (or b inconsistent).
      result.relative_residual = r_norm / b_norm;
      return result;
    }
    const double alpha = rz / p_ap;
    const VecKernels& kern = vec_kernels();
    kern.axpy_f64(x.data(), p.data(), alpha, n);
    kern.axpy_f64(r.data(), ap.data(), -alpha, n);
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    kern.xpby_f64(p.data(), z.data(), beta, n);
    ++result.iterations;
    r_norm = std::sqrt(dot(r, r));
  }

  result.relative_residual = r_norm / b_norm;
  result.converged = r_norm <= target;
  return result;
}

}  // namespace splpg::tensor
