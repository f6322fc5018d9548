// Scalar backend: the reference tier of the two-tier determinism contract.
//
// These loops are spelled out directly (NOT instantiated from
// vec_kernels.inl with width-1 vectors) so that each kernel is trivially,
// auditably the SAME expression sequence as the historical scalar code it
// replaced: libm exp/log1p/abs, sequential ascending-index accumulation, no
// FMA contraction (the build does not pass -ffast-math / -ffp-contract=fast,
// so a*b+c written as separate ops stays separate). The pre-existing
// bit-identity property suites pin this backend to the old kernels.

#include "tensor/vec.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace splpg::tensor {
namespace vec_scalar_impl {
namespace {

inline float scalar_sigmoid(float x) {
  return x >= 0.0F ? 1.0F / (1.0F + std::exp(-x)) : std::exp(x) / (1.0F + std::exp(x));
}

void axpy_f32(float* dst, const float* src, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

float dot_f32(const float* a, const float* b, std::size_t n) {
  float total = 0.0F;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

void axpy_f64(double* dst, const double* src, double alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
}

void xpby_f64(double* dst, const double* src, double beta, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] + beta * dst[i];
}

void gemm_f32(float* c, std::size_t ldc, const float* a, std::size_t a_row_stride,
              std::size_t a_col_stride, const float* b, std::size_t ldb, std::size_t m,
              std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float alpha = a[i * a_row_stride + p * a_col_stride];
      if (alpha == 0.0F) continue;
      axpy_f32(c + i * ldc, b + p * ldb, alpha, n);
    }
  }
}

double dot_f64(const double* a, const double* b, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) total += a[i] * b[i];
  return total;
}

double spmv_row_f64(const double* values, const std::uint32_t* cols, const double* x,
                    std::size_t nnz) {
  double total = 0.0;
  for (std::size_t i = 0; i < nnz; ++i) total += values[i] * x[cols[i]];
  return total;
}

void exp_f32(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = std::exp(src[i]);
}

void sigmoid_f32(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = scalar_sigmoid(src[i]);
}

void sigmoid_grad_f32(float* dst, const float* grad, const float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = grad[i] * (y[i] * (1.0F - y[i]));
}

double bce_forward_f64(const float* logits, const float* labels, std::size_t n) {
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float z = logits[i];
    total += std::max(z, 0.0F) - z * labels[i] + std::log1p(std::exp(-std::abs(z)));
  }
  return total;
}

void bce_grad_f32(float* dst, const float* logits, const float* labels, float seed,
                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = seed * (scalar_sigmoid(logits[i]) - labels[i]);
  }
}

void adam_step_f32(float* value, float* m, float* v, const float* grad, std::size_t n,
                   float beta1, float beta2, float lr, float bias1, float bias2, float eps) {
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0F - beta1) * grad[i];
    v[i] = beta2 * v[i] + (1.0F - beta2) * grad[i] * grad[i];
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

const VecKernels kTable = {
    VecBackend::kScalar,
    "scalar",
    /*width_f32=*/1,
    /*width_f64=*/1,
    /*gemm_rows=*/1,
    &axpy_f32,
    &dot_f32,
    &gemm_f32,
    &axpy_f64,
    &xpby_f64,
    &dot_f64,
    &spmv_row_f64,
    &exp_f32,
    &sigmoid_f32,
    &sigmoid_grad_f32,
    &bce_forward_f64,
    &bce_grad_f32,
    &adam_step_f32,
};

}  // namespace
}  // namespace vec_scalar_impl

namespace detail {
const VecKernels* vec_table_scalar() noexcept { return &vec_scalar_impl::kTable; }
}  // namespace detail

}  // namespace splpg::tensor
