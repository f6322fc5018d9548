#include "tensor/autograd.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_set>

#include "tensor/parallel.hpp"
#include "tensor/vec.hpp"

namespace splpg::tensor {

namespace {

// Stable grouping of edge ids by an endpoint (counting sort): after
// group_edges(keys, n), edges with keys[e] == r occupy
// edges[offsets[r]..offsets[r+1]) in ascending e. spmm_edges walks output
// rows through these groups, so a row is one task's whole work and its
// elements accumulate in ascending e at every pool width — the order of
// the plain edge loop, so the bytes are identical.
struct EdgeGroups {
  std::vector<std::uint32_t> offsets;  // num_keys + 1
  std::vector<std::uint32_t> edges;    // edge ids, grouped by key, stable
};

EdgeGroups group_edges(std::span<const std::uint32_t> keys, std::size_t num_keys) {
  EdgeGroups groups;
  groups.offsets.assign(num_keys + 1, 0);
  for (const std::uint32_t key : keys) {
    assert(key < num_keys);
    ++groups.offsets[key + 1];
  }
  for (std::size_t r = 0; r < num_keys; ++r) groups.offsets[r + 1] += groups.offsets[r];
  groups.edges.resize(keys.size());
  std::vector<std::uint32_t> cursor(groups.offsets.begin(), groups.offsets.end() - 1);
  for (std::size_t e = 0; e < keys.size(); ++e) {
    groups.edges[cursor[keys[e]]++] = static_cast<std::uint32_t>(e);
  }
  return groups;
}

}  // namespace

namespace detail {

void Node::accumulate(const Matrix& delta) {
  if (grad.empty()) grad.resize(value.rows(), value.cols());
  grad.add_inplace(delta);
}

}  // namespace detail

using detail::Node;

Tensor Tensor::parameter(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  return Tensor(std::move(node));
}

Tensor Tensor::constant(Matrix value) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = false;
  return Tensor(std::move(node));
}

Tensor make_op(Matrix value, std::vector<Tensor> parents,
               std::function<void(Node&)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  node->requires_grad = false;
  for (const auto& parent : parents) {
    if (parent.defined()) {
      node->parents.push_back(parent.node_);
      node->requires_grad = node->requires_grad || parent.node_->requires_grad;
    }
  }
  if (node->requires_grad) node->backward_fn = std::move(backward_fn);
  return Tensor(std::move(node));
}

void Tensor::backward() {
  assert(node_ != nullptr);
  // Iterative post-order DFS to topologically sort the reachable subgraph.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  stack.emplace_back(node_.get(), 0);
  visited.insert(node_.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents.size()) {
      Node* parent = node->parents[child].get();
      ++child;
      if (parent->requires_grad && visited.insert(parent).second) {
        stack.emplace_back(parent, 0);
      }
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  // topo is post-order: parents before children; traverse in reverse so each
  // node's grad is complete before its backward_fn distributes it.
  node_->grad.resize(node_->value.rows(), node_->value.cols());
  node_->grad.fill(1.0F);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    Node* node = *it;
    if (node->backward_fn && !node->grad.empty()) node->backward_fn(*node);
  }
}

// ---------------------------------------------------------------------------

Tensor matmul(const Tensor& a, const Tensor& b) { return matmul_prefix(a, a.rows(), b); }

Tensor matmul_prefix(const Tensor& a, std::size_t rows, const Tensor& b) {
  assert(rows <= a.rows() && a.cols() == b.rows());
  Matrix out(rows, b.cols());
  matmul_acc(a.value(), b.value(), out, rows);
  return make_op(std::move(out), {a, b}, [a, b, rows](Node& self) {
    // dA[0:rows) += dC * B^T (rows past the prefix get zeros);
    // dB += A[0:rows)^T * dC
    if (a.requires_grad()) {
      Matrix da(a.rows(), a.cols());
      matmul_nt_acc(self.grad, b.value(), da, rows);
      a.node_ref().accumulate(da);
    }
    if (b.requires_grad()) {
      Matrix db(b.rows(), b.cols());
      matmul_tn_acc(a.value(), self.grad, db, rows);
      b.node_ref().accumulate(db);
    }
  });
}

Tensor add(const Tensor& a, const Tensor& b) {
  const bool broadcast = b.rows() == 1 && a.rows() != 1 && b.cols() == a.cols();
  assert(broadcast || (a.rows() == b.rows() && a.cols() == b.cols()));
  Matrix out = a.value();
  if (broadcast) {
    const auto bias = b.value().row(0);
    for (std::size_t r = 0; r < out.rows(); ++r) {
      const auto row = out.row(r);
      for (std::size_t c = 0; c < out.cols(); ++c) row[c] += bias[c];
    }
  } else {
    out.add_inplace(b.value());
  }
  return make_op(std::move(out), {a, b}, [a, b, broadcast](Node& self) {
    if (a.requires_grad()) a.node_ref().accumulate(self.grad);
    if (b.requires_grad()) {
      if (broadcast) {
        Matrix db(1, self.grad.cols());
        const auto out_row = db.row(0);
        for (std::size_t r = 0; r < self.grad.rows(); ++r) {
          const auto grad_row = self.grad.row(r);
          for (std::size_t c = 0; c < grad_row.size(); ++c) out_row[c] += grad_row[c];
        }
        b.node_ref().accumulate(db);
      } else {
        b.node_ref().accumulate(self.grad);
      }
    }
  });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  const bool broadcast = b.cols() == 1 && a.cols() != 1 && b.rows() == a.rows();
  assert(broadcast || (a.rows() == b.rows() && a.cols() == b.cols()));
  Matrix out(a.rows(), a.cols());
  if (broadcast) {
    for (std::size_t r = 0; r < out.rows(); ++r) {
      const float alpha = b.value().at(r, 0);
      const auto src = a.value().row(r);
      const auto dst = out.row(r);
      for (std::size_t c = 0; c < src.size(); ++c) dst[c] = alpha * src[c];
    }
  } else {
    out = hadamard(a.value(), b.value());
  }
  return make_op(std::move(out), {a, b}, [a, b, broadcast](Node& self) {
    if (broadcast) {
      if (a.requires_grad()) {
        Matrix da(a.rows(), a.cols());
        for (std::size_t r = 0; r < da.rows(); ++r) {
          const float alpha = b.value().at(r, 0);
          const auto grad_row = self.grad.row(r);
          const auto out_row = da.row(r);
          for (std::size_t c = 0; c < grad_row.size(); ++c) out_row[c] = alpha * grad_row[c];
        }
        a.node_ref().accumulate(da);
      }
      if (b.requires_grad()) {
        Matrix db(b.rows(), 1);
        for (std::size_t r = 0; r < db.rows(); ++r) {
          const auto grad_row = self.grad.row(r);
          const auto a_row = a.value().row(r);
          float dot = 0.0F;
          for (std::size_t c = 0; c < grad_row.size(); ++c) dot += grad_row[c] * a_row[c];
          db.at(r, 0) = dot;
        }
        b.node_ref().accumulate(db);
      }
    } else {
      if (a.requires_grad()) a.node_ref().accumulate(hadamard(self.grad, b.value()));
      if (b.requires_grad()) b.node_ref().accumulate(hadamard(self.grad, a.value()));
    }
  });
}

Tensor scale(const Tensor& a, float alpha) {
  Matrix out = a.value();
  out.scale_inplace(alpha);
  return make_op(std::move(out), {a}, [a, alpha](Node& self) {
    if (!a.requires_grad()) return;
    Matrix da = self.grad;
    da.scale_inplace(alpha);
    a.node_ref().accumulate(da);
  });
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    const auto ra = a.value().row(r);
    const auto rb = b.value().row(r);
    const auto ro = out.row(r);
    std::copy(ra.begin(), ra.end(), ro.begin());
    std::copy(rb.begin(), rb.end(), ro.begin() + static_cast<std::ptrdiff_t>(ra.size()));
  }
  const std::size_t a_cols = a.cols();
  return make_op(std::move(out), {a, b}, [a, b, a_cols](Node& self) {
    if (a.requires_grad()) {
      Matrix da(a.rows(), a.cols());
      for (std::size_t r = 0; r < da.rows(); ++r) {
        const auto grad_row = self.grad.row(r);
        std::copy(grad_row.begin(), grad_row.begin() + static_cast<std::ptrdiff_t>(a_cols),
                  da.row(r).begin());
      }
      a.node_ref().accumulate(da);
    }
    if (b.requires_grad()) {
      Matrix db(b.rows(), b.cols());
      for (std::size_t r = 0; r < db.rows(); ++r) {
        const auto grad_row = self.grad.row(r);
        std::copy(grad_row.begin() + static_cast<std::ptrdiff_t>(a_cols), grad_row.end(),
                  db.row(r).begin());
      }
      b.node_ref().accumulate(db);
    }
  });
}

Tensor mean_all(const Tensor& a) {
  const auto count = static_cast<double>(a.value().size());
  double total = 0.0;
  for (const float x : a.value().data()) total += x;
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(count > 0 ? total / count : 0.0);
  return make_op(std::move(out), {a}, [a, count](Node& self) {
    if (!a.requires_grad()) return;
    Matrix da(a.rows(), a.cols(), self.grad.at(0, 0) / static_cast<float>(count));
    a.node_ref().accumulate(da);
  });
}

namespace {

/// Shared unary-activation implementation; `dfn` maps output value -> local
/// derivative (activations chosen so the derivative is a function of y).
/// Both are template parameters, so the elementwise loops inline each
/// activation's scalar expressions instead of calling them per element.
template <typename Fn, typename Dfn>
Tensor unary_from_output(const Tensor& a, Fn fn, Dfn dfn) {
  Matrix out = a.value().map(fn);
  return make_op(std::move(out), {a}, [a, dfn](Node& self) {
    if (!a.requires_grad()) return;
    Matrix da(self.value.rows(), self.value.cols());
    const auto grad = self.grad.data();
    const auto value = self.value.data();
    const auto dst = da.data();
    for (std::size_t i = 0; i < dst.size(); ++i) {
      // Named apart from the product: written as grad * dfn(y), GCC 12 folds
      // relu's grad * (y > 0 ? 1 : 0) into a branch per element (unvectorized,
      // and mispredicted on mixed signs) instead of a mask.
      const float derivative = dfn(value[i]);
      dst[i] = grad[i] * derivative;
    }
    a.node_ref().accumulate(da);
  });
}

}  // namespace

Tensor relu(const Tensor& a) {
  return unary_from_output(
      a, [](float x) { return x > 0.0F ? x : 0.0F; },
      [](float y) { return y > 0.0F ? 1.0F : 0.0F; });
}

Tensor leaky_relu(const Tensor& a, float negative_slope) {
  // Derivative is not a pure function of the output when slope != 0 at x=0,
  // but y > 0 <=> x > 0 for slope in (0, 1), so output-based dispatch works.
  return unary_from_output(
      a, [negative_slope](float x) { return x > 0.0F ? x : negative_slope * x; },
      [negative_slope](float y) { return y > 0.0F ? 1.0F : negative_slope; });
}

Tensor sigmoid(const Tensor& a) {
  // A Vec-engine epilogue rather than unary_from_output: its polynomial exp
  // vectorizes where libm's does not. The scalar backend evaluates the exact
  // historical stable two-branch formula, and the y*(1-y) backward is
  // bit-identical on every backend.
  Matrix out(a.rows(), a.cols());
  vec_kernels().sigmoid_f32(out.data().data(), a.value().data().data(), out.size());
  return make_op(std::move(out), {a}, [a](Node& self) {
    if (!a.requires_grad()) return;
    Matrix da(self.value.rows(), self.value.cols());
    vec_kernels().sigmoid_grad_f32(da.data().data(), self.grad.data().data(),
                                   self.value.data().data(), da.size());
    a.node_ref().accumulate(da);
  });
}

Tensor tanh_op(const Tensor& a) {
  return unary_from_output(a, [](float x) { return std::tanh(x); },
                           [](float y) { return 1.0F - y * y; });
}

Tensor gather_rows(const Tensor& a, std::span<const std::uint32_t> indices) {
  Matrix out(indices.size(), a.cols());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] < a.rows());
    const auto src = a.value().row(indices[i]);
    std::copy(src.begin(), src.end(), out.row(i).begin());
  }
  auto idx = std::make_shared<std::vector<std::uint32_t>>(indices.begin(), indices.end());
  return make_op(std::move(out), {a}, [a, idx](Node& self) {
    if (!a.requires_grad()) return;
    Matrix da(a.rows(), a.cols());
    for (std::size_t i = 0; i < idx->size(); ++i) {
      const auto grad_row = self.grad.row(i);
      const auto dst = da.row((*idx)[i]);
      for (std::size_t c = 0; c < dst.size(); ++c) dst[c] += grad_row[c];
    }
    a.node_ref().accumulate(da);
  });
}

Tensor spmm_edges(const Tensor& a, const Tensor& coef, std::span<const std::uint32_t> src_idx,
                  std::span<const std::uint32_t> dst_idx, std::size_t num_dst) {
  assert(src_idx.size() == dst_idx.size());
  assert(!coef.defined() ||
         (coef.rows() == src_idx.size() && coef.cols() == 1));
  Matrix out(num_dst, a.cols());
  const VecKernels& kern = vec_kernels();
  // Edges sharing a dst row conflict, so each output row runs its own edge
  // group; a task owns whole rows.
  const EdgeGroups by_dst = group_edges(dst_idx, num_dst);
  util::ThreadPool* pool = pool_for(sat_mul(src_idx.size(), a.cols()));
  util::for_each_index(pool, num_dst, [&](std::size_t r) {
    const auto dst = out.row(r);
    for (std::uint32_t i = by_dst.offsets[r]; i < by_dst.offsets[r + 1]; ++i) {
      const std::uint32_t e = by_dst.edges[i];
      assert(src_idx[e] < a.rows());
      const float c = coef.defined() ? coef.value().at(e, 0) : 1.0F;
      kern.axpy_f32(dst.data(), a.value().row(src_idx[e]).data(), c, dst.size());
    }
  });
  auto srcs = std::make_shared<std::vector<std::uint32_t>>(src_idx.begin(), src_idx.end());
  auto dsts = std::make_shared<std::vector<std::uint32_t>>(dst_idx.begin(), dst_idx.end());
  return make_op(std::move(out), {a, coef}, [a, coef, srcs, dsts](Node& self) {
    const VecKernels& kern = vec_kernels();
    util::ThreadPool* pool = pool_for(sat_mul(srcs->size(), self.grad.cols()));
    if (a.requires_grad()) {
      // The forward's loop with src and dst swapped: rows of da group by src.
      Matrix da(a.rows(), a.cols());
      const EdgeGroups by_src = group_edges(*srcs, a.rows());
      util::for_each_index(pool, a.rows(), [&](std::size_t r) {
        const auto dst = da.row(r);
        for (std::uint32_t i = by_src.offsets[r]; i < by_src.offsets[r + 1]; ++i) {
          const std::uint32_t e = by_src.edges[i];
          const float c = coef.defined() ? coef.value().at(e, 0) : 1.0F;
          kern.axpy_f32(dst.data(), self.grad.row((*dsts)[e]).data(), c, dst.size());
        }
      });
      a.node_ref().accumulate(da);
    }
    if (coef.defined() && coef.requires_grad()) {
      Matrix dc(coef.rows(), 1);
      const auto run_edge = [&](std::size_t e) {
        const auto grad_row = self.grad.row((*dsts)[e]);
        const auto src = a.value().row((*srcs)[e]);
        dc.at(e, 0) = kern.dot_f32(grad_row.data(), src.data(), src.size());
      };
      // Each edge writes its own dc element; no conflicts.
      util::for_each_index(pool, srcs->size(), run_edge);
      coef.node_ref().accumulate(dc);
    }
  });
}

Tensor segment_softmax(const Tensor& scores, std::span<const std::uint32_t> dst_idx,
                       std::size_t num_dst) {
  assert(scores.cols() == 1 && scores.rows() == dst_idx.size());
  const std::size_t num_edges = dst_idx.size();

  // Stable per-group softmax: subtract the group max.
  std::vector<float> group_max(num_dst, -std::numeric_limits<float>::infinity());
  for (std::size_t e = 0; e < num_edges; ++e) {
    group_max[dst_idx[e]] = std::max(group_max[dst_idx[e]], scores.value().at(e, 0));
  }
  // Shift, then one vectorized exp over the whole edge column; the group
  // sums still accumulate in ascending e (the serial order).
  std::vector<float> shifted(num_edges);
  for (std::size_t e = 0; e < num_edges; ++e) {
    shifted[e] = scores.value().at(e, 0) - group_max[dst_idx[e]];
  }
  Matrix out(num_edges, 1);
  vec_kernels().exp_f32(out.data().data(), shifted.data(), num_edges);
  std::vector<float> group_sum(num_dst, 0.0F);
  for (std::size_t e = 0; e < num_edges; ++e) {
    group_sum[dst_idx[e]] += out.at(e, 0);
  }
  for (std::size_t e = 0; e < num_edges; ++e) {
    out.at(e, 0) /= group_sum[dst_idx[e]];
  }

  auto dsts = std::make_shared<std::vector<std::uint32_t>>(dst_idx.begin(), dst_idx.end());
  const std::size_t groups = num_dst;
  return make_op(std::move(out), {scores}, [scores, dsts, groups](Node& self) {
    if (!scores.requires_grad()) return;
    // ds_e = y_e * (g_e - sum_{f in group(e)} y_f * g_f)
    std::vector<float> group_dot(groups, 0.0F);
    const std::size_t num_edges = dsts->size();
    for (std::size_t e = 0; e < num_edges; ++e) {
      group_dot[(*dsts)[e]] += self.value.at(e, 0) * self.grad.at(e, 0);
    }
    Matrix ds(num_edges, 1);
    for (std::size_t e = 0; e < num_edges; ++e) {
      ds.at(e, 0) = self.value.at(e, 0) * (self.grad.at(e, 0) - group_dot[(*dsts)[e]]);
    }
    scores.node_ref().accumulate(ds);
  });
}

Tensor rowwise_dot(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix out(a.rows(), 1);
  const VecKernels& kern = vec_kernels();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.value().row(r);
    out.at(r, 0) = kern.dot_f32(ra.data(), b.value().row(r).data(), ra.size());
  }
  return make_op(std::move(out), {a, b}, [a, b](Node& self) {
    if (a.requires_grad()) {
      Matrix da(a.rows(), a.cols());
      for (std::size_t r = 0; r < da.rows(); ++r) {
        const float g = self.grad.at(r, 0);
        const auto rb = b.value().row(r);
        const auto dst = da.row(r);
        for (std::size_t c = 0; c < dst.size(); ++c) dst[c] = g * rb[c];
      }
      a.node_ref().accumulate(da);
    }
    if (b.requires_grad()) {
      Matrix db(b.rows(), b.cols());
      for (std::size_t r = 0; r < db.rows(); ++r) {
        const float g = self.grad.at(r, 0);
        const auto ra = a.value().row(r);
        const auto dst = db.row(r);
        for (std::size_t c = 0; c < dst.size(); ++c) dst[c] = g * ra[c];
      }
      b.node_ref().accumulate(db);
    }
  });
}

Tensor bce_with_logits(const Tensor& logits, std::span<const float> labels) {
  assert(logits.cols() == 1 && logits.rows() == labels.size());
  const std::size_t n = labels.size();
  assert(n > 0);
  // The logits column is contiguous (n x 1); terms are summed into a double
  // accumulator in ascending i on every backend.
  const double total = vec_kernels().bce_forward_f64(logits.value().data().data(),
                                                     labels.data(), n);
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(total / static_cast<double>(n));
  auto label_copy = std::make_shared<std::vector<float>>(labels.begin(), labels.end());
  return make_op(std::move(out), {logits}, [logits, label_copy, n](Node& self) {
    if (!logits.requires_grad()) return;
    const float seed = self.grad.at(0, 0) / static_cast<float>(n);
    Matrix dl(n, 1);
    vec_kernels().bce_grad_f32(dl.data().data(), logits.value().data().data(),
                               label_copy->data(), seed, n);
    logits.node_ref().accumulate(dl);
  });
}

}  // namespace splpg::tensor
