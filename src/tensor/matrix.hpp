// Dense row-major float matrix with the handful of kernels the GNN stack
// needs: GEMM (with transposed variants), elementwise maps, row ops.
//
// Deliberately BLAS-free: the experiments compare training *methods*, not
// kernels, and a self-contained implementation keeps the library dependency-
// free. A*B and A^T*B run the Vec engine's register-tiled block kernel
// (VecKernels::gemm_f32) over blocks of C rows; A^T*B first packs a bounded
// panel of A^T per block. A*B^T is a dot product per element of C. The
// accumulating GEMMs take the number of A's leading rows they read, so a
// product over a row prefix of A runs in place, without a copy.
//
// Every shape is checked in every build type: a rows x cols product that
// overflows size_t throws std::length_error, and a data vector of the wrong
// size throws std::invalid_argument, so rows() * cols() == size() always
// holds for the kernels that trust it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace splpg::tensor {

class Matrix {
 public:
  Matrix() = default;

  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0F)
      : rows_(rows), cols_(cols), data_(checked_size(rows, cols), fill) {}

  Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
      : rows_(rows), cols_(cols), data_(std::move(data)) {
    check_data_size(rows_, cols_, data_.size());
  }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] float& at(std::size_t r, std::size_t c) noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] float at(std::size_t r, std::size_t c) const noexcept {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<float> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const float> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }

  void fill(float value) noexcept { std::fill(data_.begin(), data_.end(), value); }
  void zero() noexcept { fill(0.0F); }

  /// Reshapes to rows x cols and zero-fills every element — used to size
  /// gradient buffers; Node::accumulate relies on the zeros.
  void resize(std::size_t rows, std::size_t cols) {
    data_.assign(checked_size(rows, cols), 0.0F);
    rows_ = rows;
    cols_ = cols;
  }

  [[nodiscard]] bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// this += other (shapes must match).
  void add_inplace(const Matrix& other) noexcept;
  /// this += alpha * other.
  void axpy_inplace(float alpha, const Matrix& other) noexcept;
  /// this *= alpha.
  void scale_inplace(float alpha) noexcept;

  /// Frobenius-norm squared.
  [[nodiscard]] double squared_norm() const noexcept;

  /// Applies `fn` to every element, returning a new matrix. A template, so
  /// an elementwise lambda inlines into the loop.
  template <typename Fn>
  [[nodiscard]] Matrix map(Fn fn) const {
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] = fn(data_[i]);
    return out;
  }

  [[nodiscard]] Matrix transposed() const;

 private:
  /// rows * cols; std::length_error naming the shape if it overflows.
  static std::size_t checked_size(std::size_t rows, std::size_t cols);
  /// std::invalid_argument naming the shape unless size == rows * cols.
  static void check_data_size(std::size_t rows, std::size_t cols, std::size_t size);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B (without materializing A^T).
[[nodiscard]] Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C = A * B^T (without materializing B^T).
[[nodiscard]] Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// C[0:rows) += A[0:rows) * B: the first `rows` rows of A and of C.
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c, std::size_t rows);
/// C += A[0:rows)^T * B[0:rows): the first `rows` rows of A and of B.
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c, std::size_t rows);
/// C[0:rows) += A[0:rows) * B^T: the first `rows` rows of A and of C.
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c, std::size_t rows);

/// The same three over every row of A (C must be shaped already).
inline void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  matmul_acc(a, b, c, a.rows());
}
inline void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  matmul_tn_acc(a, b, c, a.rows());
}
inline void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  matmul_nt_acc(a, b, c, a.rows());
}

/// Elementwise sum / difference / product.
[[nodiscard]] Matrix add(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix sub(const Matrix& a, const Matrix& b);
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);

/// Max absolute elementwise difference (test helper).
[[nodiscard]] float max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace splpg::tensor
