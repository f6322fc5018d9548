#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tensor/parallel.hpp"
#include "tensor/vec.hpp"

namespace splpg::tensor {

namespace {

std::string shape_text(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + " x " + std::to_string(cols);
}

/// Rows of C per block kernel call, and the reduction depth of an A^T
/// panel: a panel holds at most kCallRows x kPanelDepth floats (48 KB).
constexpr std::size_t kCallRows = 48;
constexpr std::size_t kPanelDepth = 256;

/// fn(begin, end) over [0, rows) of C: one block when the kernel runs
/// serially, else one block per thread of the calling thread's compute
/// pool, each a multiple of `align` rows (the backend's tile height) except
/// the last. Blocks own disjoint rows of C and run their reduction whole, so
/// the schedule never changes an element's operations: the bytes are the
/// same at every pool width.
template <typename Fn>
void for_row_blocks(std::size_t rows, std::size_t flops, std::size_t align, const Fn& fn) {
  if (rows == 0) return;
  util::ThreadPool* pool = pool_for(flops);
  const std::size_t threads = pool == nullptr ? 1 : pool->size();
  const std::size_t per_thread = (rows + threads - 1) / threads;
  const std::size_t block = (per_thread + align - 1) / align * align;
  util::for_each_index(pool, (rows + block - 1) / block, [&](std::size_t index) {
    const std::size_t begin = index * block;
    fn(begin, std::min(rows, begin + block));
  });
}

}  // namespace

std::size_t Matrix::checked_size(std::size_t rows, std::size_t cols) {
  std::size_t size = 0;
  if (__builtin_mul_overflow(rows, cols, &size)) {
    throw std::length_error("Matrix: shape " + shape_text(rows, cols) +
                            " has a size (rows * cols) that overflows size_t");
  }
  return size;
}

void Matrix::check_data_size(std::size_t rows, std::size_t cols, std::size_t size) {
  if (size != checked_size(rows, cols)) {
    throw std::invalid_argument("Matrix: shape " + shape_text(rows, cols) + " needs " +
                                std::to_string(rows * cols) + " floats but the data has size " +
                                std::to_string(size));
  }
}

void Matrix::add_inplace(const Matrix& other) noexcept {
  assert(same_shape(other));
  // axpy with alpha = 1: the product is exact, so this is bit-identical to
  // the plain += loop on every backend.
  vec_kernels().axpy_f32(data_.data(), other.data_.data(), 1.0F, data_.size());
}

void Matrix::axpy_inplace(float alpha, const Matrix& other) noexcept {
  assert(same_shape(other));
  vec_kernels().axpy_f32(data_.data(), other.data_.data(), alpha, data_.size());
}

void Matrix::scale_inplace(float alpha) noexcept {
  for (float& x : data_) x *= alpha;
}

double Matrix::squared_norm() const noexcept {
  double total = 0.0;
  for (const float x : data_) total += static_cast<double>(x) * x;
  return total;
}

Matrix Matrix::transposed() const {
  // Blocked to keep both the reads and the writes inside a cache-resident
  // tile: the naive loop strides one of the two matrices by `cols_` floats
  // per element, which thrashes once a row exceeds the L1. Pure data
  // movement — bytes are identical to the naive transpose.
  constexpr std::size_t kBlock = 32;
  Matrix out(cols_, rows_);
  for (std::size_t rb = 0; rb < rows_; rb += kBlock) {
    const std::size_t r_end = std::min(rows_, rb + kBlock);
    for (std::size_t cb = 0; cb < cols_; cb += kBlock) {
      const std::size_t c_end = std::min(cols_, cb + kBlock);
      for (std::size_t r = rb; r < r_end; ++r) {
        for (std::size_t c = cb; c < c_end; ++c) out.at(c, r) = at(r, c);
      }
    }
  }
  return out;
}

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c, std::size_t m) {
  assert(a.cols() == b.rows());
  assert(m <= a.rows() && m <= c.rows() && c.cols() == b.cols());
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const VecKernels& kern = vec_kernels();
  // gemm_f32 skips alpha == 0, which exploits activation sparsity but masks
  // NaN/Inf in the skipped B row (IEEE says 0 * NaN = NaN); see vec.hpp.
  for_row_blocks(m, sat_flops(m, k, n), kern.gemm_rows, [&](std::size_t begin, std::size_t end) {
    for (std::size_t r0 = begin; r0 < end; r0 += kCallRows) {
      kern.gemm_f32(c.row(r0).data(), n, a.row(r0).data(), k, 1, b.data().data(), n,
                    std::min(kCallRows, end - r0), k, n);
    }
  });
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_acc(a, b, c);
  return c;
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c, std::size_t m) {
  // C(k x n) += A^T(k x m) * B(m x n) over the first m rows of A and B.
  // Rows [r0, r0 + rows) of C are A's columns [r0, r0 + rows). A panel
  // copies them out of kPanelDepth rows of A at a time (panel row q = A's
  // row i0 + q), which the block kernel reads transposed, and the panels
  // walk the reduction in ascending i: every element still gets its terms
  // in the serial order, one per row of A and B.
  assert(m <= a.rows() && m <= b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  const VecKernels& kern = vec_kernels();
  for_row_blocks(k, sat_flops(m, k, n), kern.gemm_rows, [&](std::size_t begin, std::size_t end) {
    std::vector<float> panel(std::min(end - begin, kCallRows) * std::min(m, kPanelDepth));
    for (std::size_t r0 = begin; r0 < end; r0 += kCallRows) {
      const std::size_t rows = std::min(kCallRows, end - r0);
      for (std::size_t i0 = 0; i0 < m; i0 += kPanelDepth) {
        const std::size_t depth = std::min(kPanelDepth, m - i0);
        for (std::size_t q = 0; q < depth; ++q) {
          const float* a_row = a.row(i0 + q).data() + r0;
          std::copy(a_row, a_row + rows, panel.begin() + static_cast<std::ptrdiff_t>(q * rows));
        }
        kern.gemm_f32(c.row(r0).data(), n, panel.data(), 1, rows, b.row(i0).data(), n, rows,
                      depth, n);
      }
    }
  });
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_acc(a, b, c);
  return c;
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c, std::size_t m) {
  // C(m x n) += A(m x k) * B^T(k x n) where B is n x k: dot products of rows,
  // over the first m rows of A and C.
  assert(a.cols() == b.cols());
  assert(m <= a.rows() && m <= c.rows() && c.cols() == b.rows());
  const std::size_t k = a.cols();
  const std::size_t n = b.rows();
  const VecKernels& kern = vec_kernels();
  const auto run_row = [&](std::size_t i) {
    const auto a_row = a.row(i);
    const auto c_row = c.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      c_row[j] += kern.dot_f32(a_row.data(), b.row(j).data(), k);
    }
  };
  // Each task owns disjoint rows of C; per-row work is untouched.
  util::for_each_index(pool_for(sat_flops(m, k, n)), m, run_row);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_nt_acc(a, b, c);
  return c;
}

Matrix add(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c = a;
  c.add_inplace(b);
  return c;
}

Matrix sub(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c = a;
  c.axpy_inplace(-1.0F, b);
  return c;
}

Matrix hadamard(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  Matrix c(a.rows(), a.cols());
  const auto da = a.data();
  const auto db = b.data();
  const auto dc = c.data();
  for (std::size_t i = 0; i < da.size(); ++i) dc[i] = da[i] * db[i];
  return c;
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  assert(a.same_shape(b));
  float best = 0.0F;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    best = std::max(best, std::abs(da[i] - db[i]));
  }
  return best;
}

}  // namespace splpg::tensor
