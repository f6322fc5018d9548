// Dense symmetric eigendecomposition (cyclic Jacobi) and pseudo-inverse.
//
// The sparsify module reads the spectral gap of the normalized Laplacian
// (gamma in Theorem 2) off symmetric_eigen; the pseudo-inverse is the dense
// reference the tests check the CG effective-resistance solver against.
// O(n^3); intended for validation on small graphs, not the training path —
// the production sparsifier uses the Theorem 2 degree approximation.
#pragma once

#include "tensor/matrix.hpp"

namespace splpg::tensor {

struct EigenDecomposition {
  std::vector<double> eigenvalues;  // ascending
  Matrix eigenvectors;              // column i pairs with eigenvalues[i]
};

/// Eigendecomposition of a symmetric matrix via the cyclic Jacobi method.
/// `a` must be symmetric; asymmetry beyond ~1e-4 is a programming error.
[[nodiscard]] EigenDecomposition symmetric_eigen(const Matrix& a, double tolerance = 1e-10,
                                                 int max_sweeps = 100);

/// Moore-Penrose pseudo-inverse of a symmetric matrix: eigenvalues below
/// `rank_tolerance` (relative to the largest) are treated as zero.
[[nodiscard]] Matrix symmetric_pseudo_inverse(const Matrix& a, double rank_tolerance = 1e-8);

}  // namespace splpg::tensor
