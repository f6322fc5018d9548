// Sparse CSR matrix and matrix-vector product for the CG Laplacian solver.
//
// The dense `Matrix` is float and sized n*n; graph Laplacians are ~2m+n
// nonzeros. `SparseMatrix` stores double-precision values — the
// conjugate-gradient solver in cg.hpp iterates on it and accumulates
// residuals far below float epsilon, which is why exact effective resistance
// is solved here rather than read off a float dense pseudo-inverse.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace splpg::tensor {

/// Compressed-sparse-row matrix over double. Immutable after construction;
/// column indices within each row must be strictly ascending (checked with
/// assertions) so that products are deterministic and rows can be merged /
/// searched.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Takes ownership of the three CSR arrays. `row_offsets` has rows+1
  /// entries; `col_indices`/`values` are parallel with
  /// `row_offsets.back()` entries, columns strictly ascending per row.
  SparseMatrix(std::size_t rows, std::size_t cols, std::vector<std::size_t> row_offsets,
               std::vector<std::uint32_t> col_indices, std::vector<double> values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t nnz() const noexcept { return values_.size(); }

  [[nodiscard]] std::span<const std::size_t> row_offsets() const noexcept { return row_offsets_; }
  [[nodiscard]] std::span<const std::uint32_t> col_indices() const noexcept {
    return col_indices_;
  }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Entries of row `r` as (col_indices, values) spans.
  [[nodiscard]] std::pair<std::span<const std::uint32_t>, std::span<const double>> row(
      std::size_t r) const noexcept {
    const std::size_t lo = row_offsets_[r];
    const std::size_t hi = row_offsets_[r + 1];
    return {{col_indices_.data() + lo, hi - lo}, {values_.data() + lo, hi - lo}};
  }

  /// The diagonal entry of row `r` (0 when the row has no diagonal entry).
  [[nodiscard]] double diagonal(std::size_t r) const noexcept;

  /// y = A x. `x` must have cols() entries, `y` rows() entries; they must
  /// not alias. Each row accumulates in column order.
  void spmv(std::span<const double> x, std::span<double> y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_offsets_;
  std::vector<std::uint32_t> col_indices_;
  std::vector<double> values_;
};

}  // namespace splpg::tensor
