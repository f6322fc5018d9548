// Unit tests for the tensor module: matrix kernels, eigendecomposition,
// pseudo-inverse, and initializers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "tensor/eigen.hpp"
#include "tensor/init.hpp"
#include "tensor/matrix.hpp"
#include "tensor/parallel.hpp"
#include "tensor/vec.hpp"
#include "util/rng.hpp"

namespace splpg::tensor {
namespace {

using util::Rng;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix out(rows, cols);
  for (float& x : out.data()) x = static_cast<float>(rng.normal(0.0, 1.0));
  return out;
}

/// Naive triple-loop reference GEMM.
Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0F;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a.at(i, k) * b.at(k, j);
      c.at(i, j) = sum;
    }
  }
  return c;
}

class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(1);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  EXPECT_LT(max_abs_diff(matmul(a, b), reference_matmul(a, b)), 1e-4F);
}

TEST_P(GemmShapes, TransposedVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(2);
  const Matrix a = random_matrix(m, k, rng);
  const Matrix b = random_matrix(k, n, rng);
  // A^T * B via matmul_tn(A, B) where A is (k x m) transposed input.
  const Matrix at = a.transposed();
  EXPECT_LT(max_abs_diff(matmul_tn(at, b), reference_matmul(a, b)), 1e-4F);
  const Matrix bt = b.transposed();
  EXPECT_LT(max_abs_diff(matmul_nt(a, bt), reference_matmul(a, b)), 1e-4F);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmShapes,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 4, 5},
                                           std::tuple{7, 1, 7}, std::tuple{16, 16, 16},
                                           std::tuple{2, 31, 5}, std::tuple{10, 64, 3}));

TEST(Matrix, AccumulatingGemmAddsOnTop) {
  Rng rng(3);
  const Matrix a = random_matrix(3, 4, rng);
  const Matrix b = random_matrix(4, 2, rng);
  Matrix c(3, 2, 1.0F);
  matmul_acc(a, b, c);
  Matrix expected = reference_matmul(a, b);
  for (float& x : expected.data()) x += 1.0F;
  EXPECT_LT(max_abs_diff(c, expected), 1e-4F);
}

TEST(Matrix, ElementwiseOps) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  EXPECT_FLOAT_EQ(add(a, b).at(1, 1), 12.0F);
  EXPECT_FLOAT_EQ(sub(a, b).at(0, 0), -4.0F);
  EXPECT_FLOAT_EQ(hadamard(a, b).at(1, 0), 21.0F);
}

TEST(Matrix, InplaceOps) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {10, 20, 30});
  a.add_inplace(b);
  EXPECT_FLOAT_EQ(a.at(0, 2), 33.0F);
  a.axpy_inplace(-1.0F, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 1.0F);
  a.scale_inplace(2.0F);
  EXPECT_FLOAT_EQ(a.at(0, 1), 4.0F);
}

TEST(Matrix, SquaredNormAndMap) {
  Matrix a(1, 3, {3, 4, 0});
  EXPECT_DOUBLE_EQ(a.squared_norm(), 25.0);
  const Matrix doubled = a.map([](float x) { return 2 * x; });
  EXPECT_FLOAT_EQ(doubled.at(0, 1), 8.0F);
}

TEST(Matrix, TransposedTwiceIsIdentity) {
  Rng rng(4);
  const Matrix a = random_matrix(3, 7, rng);
  EXPECT_FLOAT_EQ(max_abs_diff(a.transposed().transposed(), a), 0.0F);
}

TEST(Matrix, BlockedTransposeMatchesNaiveBytes) {
  // The blocked transpose is pure data movement; its bytes must equal the
  // naive element-by-element transpose on shapes around and across the
  // 32-wide block boundary (including degenerate rows/columns).
  Rng rng(41);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 67}, {67, 1}, {31, 33}, {32, 32}, {37, 53}, {64, 65}, {100, 3}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = random_matrix(rows, cols, rng);
    Matrix expected(cols, rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) expected.at(c, r) = a.at(r, c);
    }
    const Matrix got = a.transposed();
    ASSERT_EQ(got.rows(), cols);
    ASSERT_EQ(got.cols(), rows);
    EXPECT_TRUE(std::equal(got.data().begin(), got.data().end(), expected.data().begin()))
        << rows << "x" << cols;
  }
}

TEST(Matrix, ZeroSkipMasksNanByDefault) {
  // An exact 0 in A skips the whole B row, so NaN/Inf hiding behind a zero
  // coefficient never reaches C.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Matrix a(1, 2, {0.0F, 1.0F});
  Matrix b(2, 2, {nan, std::numeric_limits<float>::infinity(), 2.0F, 3.0F});
  Matrix c(1, 2);
  matmul_acc(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(c.at(0, 1), 3.0F);

  // A^T(2x1) * B(1x2): the a(0,0) = 0 coefficient would multiply B's NaN
  // row into C row 0 — skipped.
  Matrix bt(1, 2, {nan, 3.0F});
  Matrix ct(2, 2);
  matmul_tn_acc(a, bt, ct);
  EXPECT_FLOAT_EQ(ct.at(0, 0), 0.0F);
  EXPECT_FLOAT_EQ(ct.at(0, 1), 0.0F);
  EXPECT_TRUE(std::isnan(ct.at(1, 0)));
  EXPECT_FLOAT_EQ(ct.at(1, 1), 3.0F);
}

// Shapes are checked in every build type (the GEMM block kernel trusts
// rows * cols == size()), not only by asserts.
TEST(Matrix, OverflowingShapeThrowsLengthErrorNamingIt) {
  constexpr std::size_t kHuge = std::size_t{1} << 32U;
  const auto expect_length_error = [](const auto& make) {
    try {
      make();
      FAIL() << "expected std::length_error";
    } catch (const std::length_error& error) {
      EXPECT_NE(std::string(error.what()).find("4294967296 x 4294967296"), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("size"), std::string::npos) << error.what();
    }
  };
  expect_length_error([] { (void)Matrix(kHuge, kHuge); });
  expect_length_error([] { (void)Matrix(kHuge, kHuge, std::vector<float>{}); });
  Matrix m(2, 3, 7.0F);
  expect_length_error([&] { m.resize(kHuge, kHuge); });
  // A failed resize leaves the matrix as it was; a good one zero-fills.
  EXPECT_EQ(m.rows(), 2U);
  EXPECT_EQ(m.cols(), 3U);
  EXPECT_EQ(m.size(), 6U);
  m.resize(3, 4);
  EXPECT_EQ(m.rows() * m.cols(), m.size());
  for (const float x : m.data()) EXPECT_EQ(x, 0.0F);
}

TEST(Matrix, DataSizeMismatchThrowsInvalidArgumentNamingIt) {
  for (const std::size_t size : {3U, 5U, 0U}) {
    try {
      (void)Matrix(2, 2, std::vector<float>(size, 1.0F));
      FAIL() << "expected std::invalid_argument for " << size << " floats";
    } catch (const std::invalid_argument& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("2 x 2"), std::string::npos) << what;
      EXPECT_NE(what.find("size " + std::to_string(size)), std::string::npos) << what;
    }
  }
  const Matrix empty(0, 5, std::vector<float>{});
  EXPECT_EQ(empty.size(), 0U);
  const Matrix exact(2, 2, std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F});
  EXPECT_EQ(exact.at(1, 1), 4.0F);
}

TEST(Parallel, SaturatingFlopGateDoesNotWrap) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // (2^22)^3 = 2^66 wraps to 0 in std::size_t — the old gate read these
  // adversarial shapes as "tiny" and silently de-parallelized.
  constexpr std::size_t kBig = std::size_t{1} << 22U;
  EXPECT_EQ(kBig * kBig * kBig, 0U);  // the wrap the fix exists for
  EXPECT_EQ(sat_flops(kBig, kBig, kBig), kMax);
  EXPECT_EQ(sat_mul(kMax, 2), kMax);
  EXPECT_EQ(sat_flops(std::size_t{1} << 32U, std::size_t{1} << 32U, 16), kMax);
  // Non-overflowing products are exact.
  EXPECT_EQ(sat_mul(12, 12), 144U);
  EXPECT_EQ(sat_flops(128, 64, 32), 128U * 64U * 32U);
  EXPECT_EQ(sat_flops(0, kMax, kMax), 0U);
}

TEST(Eigen, DiagonalMatrix) {
  Matrix a(3, 3);
  a.at(0, 0) = 3.0F;
  a.at(1, 1) = 1.0F;
  a.at(2, 2) = 2.0F;
  const auto decomposition = symmetric_eigen(a);
  ASSERT_EQ(decomposition.eigenvalues.size(), 3U);
  EXPECT_NEAR(decomposition.eigenvalues[0], 1.0, 1e-8);
  EXPECT_NEAR(decomposition.eigenvalues[1], 2.0, 1e-8);
  EXPECT_NEAR(decomposition.eigenvalues[2], 3.0, 1e-8);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  Matrix a(2, 2, {2, 1, 1, 2});
  const auto decomposition = symmetric_eigen(a);
  EXPECT_NEAR(decomposition.eigenvalues[0], 1.0, 1e-8);
  EXPECT_NEAR(decomposition.eigenvalues[1], 3.0, 1e-8);
}

TEST(Eigen, ReconstructionProperty) {
  Rng rng(5);
  const Matrix half = random_matrix(6, 6, rng);
  // Symmetrize: A = (H + H^T) / 2.
  Matrix a = add(half, half.transposed());
  a.scale_inplace(0.5F);
  const auto decomposition = symmetric_eigen(a);
  // A v_k = lambda_k v_k for every eigenpair.
  for (std::size_t k = 0; k < 6; ++k) {
    Matrix v(6, 1);
    for (std::size_t i = 0; i < 6; ++i) v.at(i, 0) = decomposition.eigenvectors.at(i, k);
    const Matrix av = matmul(a, v);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_NEAR(av.at(i, 0), decomposition.eigenvalues[k] * v.at(i, 0), 1e-3);
    }
  }
}

TEST(Eigen, EigenvectorsOrthonormal) {
  Rng rng(6);
  const Matrix half = random_matrix(5, 5, rng);
  Matrix a = add(half, half.transposed());
  const auto decomposition = symmetric_eigen(a);
  const Matrix vtv = matmul_tn(decomposition.eigenvectors, decomposition.eigenvectors);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(vtv.at(i, j), i == j ? 1.0 : 0.0, 1e-4);
    }
  }
}

TEST(Eigen, PseudoInverseOfInvertibleIsInverse) {
  Matrix a(2, 2, {4, 1, 1, 3});
  const Matrix pinv = symmetric_pseudo_inverse(a);
  const Matrix identity = matmul(a, pinv);
  EXPECT_NEAR(identity.at(0, 0), 1.0, 1e-4);
  EXPECT_NEAR(identity.at(1, 1), 1.0, 1e-4);
  EXPECT_NEAR(identity.at(0, 1), 0.0, 1e-4);
}

TEST(Eigen, PseudoInverseSatisfiesMoorePenrose) {
  // Singular matrix: rank-1 projector scaled.
  Matrix a(3, 3);
  const float v[3] = {1.0F, 2.0F, -1.0F};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) a.at(i, j) = v[i] * v[j];
  }
  const Matrix pinv = symmetric_pseudo_inverse(a);
  // A A+ A = A.
  const Matrix apa = matmul(matmul(a, pinv), a);
  EXPECT_LT(max_abs_diff(apa, a), 1e-3F);
  // A+ A A+ = A+.
  const Matrix pap = matmul(matmul(pinv, a), pinv);
  EXPECT_LT(max_abs_diff(pap, pinv), 1e-3F);
}

TEST(Init, XavierUniformBounds) {
  Rng rng(7);
  const Matrix w = xavier_uniform(100, 50, rng);
  const double bound = std::sqrt(6.0 / 150.0);
  for (const float x : w.data()) {
    EXPECT_GE(x, -bound);
    EXPECT_LE(x, bound);
  }
}

TEST(Init, DeterministicGivenRng) {
  Rng rng1(9);
  Rng rng2(9);
  const Matrix a = xavier_uniform(10, 10, rng1);
  const Matrix b = xavier_uniform(10, 10, rng2);
  EXPECT_FLOAT_EQ(max_abs_diff(a, b), 0.0F);
}

}  // namespace
}  // namespace splpg::tensor
