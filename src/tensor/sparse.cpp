#include "tensor/sparse.hpp"

#include <cassert>
#include <utility>

#include "tensor/vec.hpp"

namespace splpg::tensor {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols,
                           std::vector<std::size_t> row_offsets,
                           std::vector<std::uint32_t> col_indices, std::vector<double> values)
    : rows_(rows),
      cols_(cols),
      row_offsets_(std::move(row_offsets)),
      col_indices_(std::move(col_indices)),
      values_(std::move(values)) {
  assert(row_offsets_.size() == rows_ + 1);
  assert(row_offsets_.front() == 0);
  assert(row_offsets_.back() == col_indices_.size());
  assert(col_indices_.size() == values_.size());
#ifndef NDEBUG
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
      assert(col_indices_[i] < cols_);
      assert(i == row_offsets_[r] || col_indices_[i - 1] < col_indices_[i]);
    }
  }
#endif
}

double SparseMatrix::diagonal(std::size_t r) const noexcept {
  assert(r < rows_);
  const auto [cols, vals] = row(r);
  // Rows are short (node degree) and sorted; a linear scan keeps the common
  // Laplacian case (diagonal present) branch-predictable.
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i] == r) return vals[i];
    if (cols[i] > r) break;
  }
  return 0.0;
}

void SparseMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  assert(x.size() == cols_);
  assert(y.size() == rows_);
  assert(x.data() != y.data());
  const VecKernels& kern = vec_kernels();
  for (std::size_t r = 0; r < rows_; ++r) {
    // Gathered dot over one CSR row.
    const std::size_t lo = row_offsets_[r];
    y[r] = kern.spmv_row_f64(values_.data() + lo, col_indices_.data() + lo, x.data(),
                             row_offsets_[r + 1] - lo);
  }
}

}  // namespace splpg::tensor
