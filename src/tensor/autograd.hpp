// Reverse-mode automatic differentiation over Matrix values.
//
// A `Tensor` is a handle to a node in a dynamically built computation DAG.
// Children hold shared ownership of their parents (never the reverse), so the
// graph is acyclic in ownership and frees itself when the loss handle goes
// out of scope. `backward()` topologically sorts the reachable subgraph and
// runs each node's backward closure, accumulating gradients into
// requires-grad leaves (the model parameters).
//
// The op set is exactly what the GNN stack needs, including the three
// graph-specific primitives:
//   * gather_rows      — build a mini-batch's input rows / pick edge endpoints
//   * spmm_edges       — generalized neighborhood aggregation (GCN/SAGE/GAT):
//                        out[dst_idx[e]] += coef[e] * in[src_idx[e]]
//   * segment_softmax  — per-destination softmax over edge scores (GAT/GATv2)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace splpg::tensor {

namespace detail {
struct Node {
  Matrix value;
  Matrix grad;  // allocated on first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward_fn;  // may be empty (leaf)

  void accumulate(const Matrix& delta);
};
}  // namespace detail

class Tensor {
 public:
  Tensor() = default;

  /// Trainable leaf (model parameter).
  [[nodiscard]] static Tensor parameter(Matrix value);
  /// Non-trainable leaf (inputs, labels).
  [[nodiscard]] static Tensor constant(Matrix value);

  [[nodiscard]] bool defined() const noexcept { return node_ != nullptr; }
  [[nodiscard]] const Matrix& value() const noexcept { return node_->value; }
  [[nodiscard]] Matrix& mutable_value() noexcept { return node_->value; }
  [[nodiscard]] bool requires_grad() const noexcept { return node_->requires_grad; }

  /// Gradient buffer. Zero-shaped until backward touches this node.
  [[nodiscard]] const Matrix& grad() const noexcept { return node_->grad; }
  [[nodiscard]] Matrix& mutable_grad() noexcept { return node_->grad; }

  [[nodiscard]] std::size_t rows() const noexcept { return node_->value.rows(); }
  [[nodiscard]] std::size_t cols() const noexcept { return node_->value.cols(); }

  /// Clears this node's gradient (parameters are cleared by the optimizer).
  void zero_grad() noexcept { node_->grad.zero(); }

  /// Runs reverse-mode AD from this node. The seed gradient is all-ones
  /// (callers invoke it on a 1x1 loss).
  void backward();

  /// Scalar convenience for 1x1 tensors.
  [[nodiscard]] float item() const noexcept { return node_->value.at(0, 0); }

  /// Internal: direct node access for op backward closures.
  [[nodiscard]] detail::Node& node_ref() const noexcept { return *node_; }

 private:
  friend Tensor make_op(Matrix value, std::vector<Tensor> parents,
                        std::function<void(detail::Node&)> backward_fn);
  explicit Tensor(std::shared_ptr<detail::Node> node) : node_(std::move(node)) {}
  std::shared_ptr<detail::Node> node_;
};

/// Internal: creates an op node; exposed for extension ops in tests.
[[nodiscard]] Tensor make_op(Matrix value, std::vector<Tensor> parents,
                             std::function<void(detail::Node&)> backward_fn);

// ---- arithmetic ----

/// C = A * B.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A[0:rows) * B: the product of A's first `rows` rows, read in place
/// (matmul is the case rows = A.rows()). Backward writes dC * B^T into rows
/// [0, rows) of a zero buffer shaped like A, which is exactly what
/// gather_rows(a, 0..rows) would scatter, so the bytes of every gradient
/// equal those of the gather followed by matmul.
[[nodiscard]] Tensor matmul_prefix(const Tensor& a, std::size_t rows, const Tensor& b);

/// Elementwise A + B. B may also be a 1 x cols row vector, broadcast over
/// rows (bias add).
[[nodiscard]] Tensor add(const Tensor& a, const Tensor& b);

/// Elementwise A * B (same shapes), or B is N x 1 broadcast over columns.
[[nodiscard]] Tensor mul(const Tensor& a, const Tensor& b);

/// alpha * A.
[[nodiscard]] Tensor scale(const Tensor& a, float alpha);

/// Column-wise concatenation [A | B].
[[nodiscard]] Tensor concat_cols(const Tensor& a, const Tensor& b);

/// Mean over all elements -> 1x1.
[[nodiscard]] Tensor mean_all(const Tensor& a);

// ---- activations ----

[[nodiscard]] Tensor relu(const Tensor& a);
[[nodiscard]] Tensor leaky_relu(const Tensor& a, float negative_slope = 0.2F);
[[nodiscard]] Tensor sigmoid(const Tensor& a);
[[nodiscard]] Tensor tanh_op(const Tensor& a);

// ---- graph primitives ----

/// out[i] = a[indices[i]] (row gather). Backward scatter-adds.
[[nodiscard]] Tensor gather_rows(const Tensor& a, std::span<const std::uint32_t> indices);

/// Generalized sparse aggregation over an edge list:
///   out[dst_idx[e]] += coef[e] * a[src_idx[e]]    for e in [0, E)
/// `coef` may be undefined (all-ones), a constant, or a trainable E x 1
/// tensor (attention weights); gradients flow into both `a` and `coef`.
[[nodiscard]] Tensor spmm_edges(const Tensor& a, const Tensor& coef,
                                std::span<const std::uint32_t> src_idx,
                                std::span<const std::uint32_t> dst_idx, std::size_t num_dst);

/// Softmax over the E x 1 `scores`, normalizing within groups of edges that
/// share a destination (dst_idx). Groups with no edges are untouched.
[[nodiscard]] Tensor segment_softmax(const Tensor& scores,
                                     std::span<const std::uint32_t> dst_idx,
                                     std::size_t num_dst);

/// out[i] = dot(a.row(i), b.row(i)) -> N x 1 (dot-product edge predictor).
[[nodiscard]] Tensor rowwise_dot(const Tensor& a, const Tensor& b);

// ---- losses ----

/// Numerically stable mean binary-cross-entropy with logits:
///   mean_i [ max(z,0) - z*y + log(1 + exp(-|z|)) ]
/// `labels` must have logits.rows() entries in {0, 1} (soft labels allowed).
[[nodiscard]] Tensor bce_with_logits(const Tensor& logits, std::span<const float> labels);

}  // namespace splpg::tensor
