#include "tensor/eigen.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

namespace splpg::tensor {

EigenDecomposition symmetric_eigen(const Matrix& a, double tolerance, int max_sweeps) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();

  // Work in double precision for numerical robustness.
  std::vector<double> m(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m[i * n + j] = a.at(i, j);
  }
  std::vector<double> vectors(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) vectors[i * n + i] = 1.0;

  auto off_diag_norm = [&] {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) total += m[i * n + j] * m[i * n + j];
    }
    return std::sqrt(total);
  };

  const double scale = std::max(1.0, std::sqrt(std::inner_product(
                                         m.begin(), m.end(), m.begin(), 0.0)));
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    if (off_diag_norm() <= tolerance * scale) break;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = m[p * n + q];
        if (std::abs(apq) < 1e-300) continue;
        const double app = m[p * n + p];
        const double aqq = m[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;

        for (std::size_t k = 0; k < n; ++k) {
          const double mkp = m[k * n + p];
          const double mkq = m[k * n + q];
          m[k * n + p] = c * mkp - s * mkq;
          m[k * n + q] = s * mkp + c * mkq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double mpk = m[p * n + k];
          const double mqk = m[q * n + k];
          m[p * n + k] = c * mpk - s * mqk;
          m[q * n + k] = s * mpk + c * mqk;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double vkp = vectors[k * n + p];
          const double vkq = vectors[k * n + q];
          vectors[k * n + p] = c * vkp - s * vkq;
          vectors[k * n + q] = s * vkp + c * vkq;
        }
      }
    }
  }

  // Sort ascending by eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return m[x * n + x] < m[y * n + y]; });

  EigenDecomposition out;
  out.eigenvalues.resize(n);
  out.eigenvectors.resize(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    out.eigenvalues[j] = m[order[j] * n + order[j]];
    for (std::size_t i = 0; i < n; ++i) {
      out.eigenvectors.at(i, j) = static_cast<float>(vectors[i * n + order[j]]);
    }
  }
  return out;
}

Matrix symmetric_pseudo_inverse(const Matrix& a, double rank_tolerance) {
  const auto decomposition = symmetric_eigen(a);
  const std::size_t n = a.rows();
  double max_abs = 0.0;
  for (const double lambda : decomposition.eigenvalues) {
    max_abs = std::max(max_abs, std::abs(lambda));
  }
  const double cutoff = rank_tolerance * std::max(max_abs, 1e-300);

  std::vector<std::pair<std::size_t, double>> kept;  // (k, 1/lambda_k), k ascending
  kept.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double lambda = decomposition.eigenvalues[k];
    if (std::abs(lambda) > cutoff) kept.emplace_back(k, 1.0 / lambda);
  }

  // A+ = V diag(1/lambda restricted to |lambda| > cutoff) V^T; each output
  // row accumulates over k in ascending order.
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [k, inv] : kept) {
      const double vik = decomposition.eigenvectors.at(i, k);
      if (vik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out.at(i, j) += static_cast<float>(inv * vik * decomposition.eigenvectors.at(j, k));
      }
    }
  }
  return out;
}

}  // namespace splpg::tensor
