// SIMD kernel engine: compile-time-vectorized implementations of the tensor
// hot loops with runtime backend dispatch, in the style of ATen's
// cpu/vec256 / vec512 headers.
//
// Each backend (scalar, SSE2, AVX2, AVX-512) is one translation unit compiled
// with exactly its ISA flags; the rest of the library stays at the baseline
// architecture, and the running CPU is probed once at startup
// (__builtin_cpu_supports) to pick the widest compiled-in backend it can
// execute. `SPLPG_VEC=scalar|sse2|avx2|avx512` pins a backend for testing;
// `set_vec_backend` does the same programmatically (used by the ULP property
// tests and bench_kernels to sweep backends in one process).
//
// Determinism is a TWO-TIER contract (DESIGN.md "Kernel engine"):
//  * The scalar backend is bit-identical to the historical scalar kernels —
//    byte-for-byte, enforced by the pre-existing property suites running
//    under SPLPG_VEC=scalar.
//  * Every SIMD backend is a pure function of its inputs — same backend,
//    same bytes, at every thread count and schedule (kernels never split
//    work across threads themselves; row/edge decomposition happens above
//    them and each output element is produced on one thread by a fixed
//    sequence of kernel calls) —
//    and matches the scalar backend within the documented per-kernel bounds
//    below.
//
// Kernels: axpy/dot (f32, f64), the block GEMM gemm_f32, xpby, the CSR
// spmv row, exp/sigmoid/sigmoid_grad, the BCE forward and gradient, and the
// fused Adam step.
//
// Per-kernel scalar-vs-SIMD bounds (eps = machine epsilon of the element
// type, k = reduction length):
//  * axpy/xpby: elementwise; FMA contraction differs from mul+add by at
//    most 1 ULP per call. Accumulated over a k-deep GEMM update chain the
//    divergence is <= (k + 2) * eps * sum_p |a_p * b_pj|.
//  * gemm_f32: runs axpy_f32's operation sequence for every element (one
//    fma per term on full vectors, mul+add on the tail, ascending k, the
//    same zero skip), so on one backend it equals the row loop of axpy_f32
//    calls bit for bit, and against scalar it has axpy's GEMM bound above.
//  * dot/spmv_row: lane-partial accumulation reassociates the sum;
//    |simd - scalar| <= 2 * (k + 2) * eps * sum |terms|.
//  * exp/sigmoid: Cephes polynomial vs libm — <= 16 ULP elementwise, plus
//    an absolute floor of 2^-120 (the polynomial clamps instead of
//    denormal-underflowing at extreme arguments).
//  * bce_forward: per-term transcendental error as above; terms are summed
//    in the scalar order (ascending index), so the sum inherits the
//    elementwise bound: |simd - scalar| <= n * (16 ULP of the largest term
//    + 1e-7 absolute).
//  * sigmoid_grad/adam_step: identical operation sequence, no contraction —
//    bit-identical on EVERY backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace splpg::tensor {

enum class VecBackend : int { kScalar = 0, kSse2 = 1, kAvx2 = 2, kAvx512 = 3 };

inline constexpr int kNumVecBackends = 4;

/// Function-pointer table for one backend's kernels. All pointers are
/// non-null in a registered table.
struct VecKernels {
  VecBackend backend = VecBackend::kScalar;
  const char* name = "scalar";
  std::size_t width_f32 = 1;  ///< float lanes per vector op
  std::size_t width_f64 = 1;  ///< double lanes per vector op
  std::size_t gemm_rows = 1;  ///< rows of C per gemm_f32 register tile

  // ---- linear float kernels (GEMM / aggregation inner loops) ----
  /// dst[i] += alpha * src[i]
  void (*axpy_f32)(float* dst, const float* src, float alpha, std::size_t n);
  /// sum_i a[i] * b[i]
  float (*dot_f32)(const float* a, const float* b, std::size_t n);
  /// Block GEMM: C (m x n) += A (m x k) * B (k x n). C and B are row-major
  /// with row strides ldc and ldb; A(i, p) = a[i * a_row_stride + p *
  /// a_col_stride], so A may be a row-major matrix or a transposed view.
  /// Every element of C takes exactly the operations of the row loop
  /// `for p < k: axpy_f32(C row i, B row p, A(i, p), n)`: one fma per term
  /// on full-vector columns, a mul then an add on the n % width_f32 tail, p
  /// ascending. The terms with A(i, p) == 0 are left out, as the loop's
  /// skip does; the update is masked, never fma(0, b, c). So it equals
  /// those loops bit for bit on the same backend. Scalar runs the row loop
  /// itself. SSE2 and AVX2 run C's rows one at a time, each in a register
  /// tile over its nonzero terms. AVX-512 holds a 6-row register tile of C
  /// across the reduction, and runs rows one at a time instead when more
  /// than 3/4 of A is zero.
  ///
  /// The skip is exact for finite B (c + 0 * b == c, and it avoids the
  /// signed-zero flip fma(0, b, -0) would make), but it masks NaN/Inf in a
  /// skipped B row, where IEEE gives 0 * NaN = NaN: a NaN behind a zero
  /// coefficient never reaches C.
  void (*gemm_f32)(float* c, std::size_t ldc, const float* a, std::size_t a_row_stride,
                   std::size_t a_col_stride, const float* b, std::size_t ldb, std::size_t m,
                   std::size_t k, std::size_t n);

  // ---- linear double kernels (sparse CSR solvers) ----
  /// dst[i] += alpha * src[i]
  void (*axpy_f64)(double* dst, const double* src, double alpha, std::size_t n);
  /// dst[i] = src[i] + beta * dst[i]
  void (*xpby_f64)(double* dst, const double* src, double beta, std::size_t n);
  /// sum_i a[i] * b[i]
  double (*dot_f64)(const double* a, const double* b, std::size_t n);
  /// One CSR row of y = A x: sum_i values[i] * x[cols[i]] (gathered).
  double (*spmv_row_f64)(const double* values, const std::uint32_t* cols, const double* x,
                         std::size_t nnz);

  // ---- transcendental epilogues ----
  /// dst[i] = exp(src[i])
  void (*exp_f32)(float* dst, const float* src, std::size_t n);
  /// dst[i] = 1 / (1 + exp(-src[i])), numerically stable on both branches.
  void (*sigmoid_f32)(float* dst, const float* src, std::size_t n);
  /// dst[i] = grad[i] * (y[i] * (1 - y[i])) — bit-identical on every backend.
  void (*sigmoid_grad_f32)(float* dst, const float* grad, const float* y, std::size_t n);
  /// sum_i max(z,0) - z*y + log1p(exp(-|z|)) accumulated in double,
  /// ascending i (the scalar order on every backend).
  double (*bce_forward_f64)(const float* logits, const float* labels, std::size_t n);
  /// dst[i] = seed * (sigmoid(logits[i]) - labels[i])
  void (*bce_grad_f32)(float* dst, const float* logits, const float* labels, float seed,
                       std::size_t n);

  // ---- optimizer ----
  /// One fused Adam update over n elements. The operation sequence is
  /// exactly the scalar loop's (no FMA contraction), so every backend is
  /// bit-identical — checkpoints and resume runs do not depend on SPLPG_VEC.
  void (*adam_step_f32)(float* value, float* m, float* v, const float* grad, std::size_t n,
                        float beta1, float beta2, float lr, float bias1, float bias2, float eps);
};

/// Backend compiled into this binary? (Non-x86 builds carry only scalar;
/// x86 builds may drop AVX-512 if the compiler cannot target it.)
[[nodiscard]] bool vec_backend_compiled(VecBackend backend) noexcept;

/// Compiled in AND executable on the running CPU (probed at startup)?
[[nodiscard]] bool vec_backend_supported(VecBackend backend) noexcept;

/// Widest supported backend — the startup default when SPLPG_VEC is unset.
[[nodiscard]] VecBackend vec_best_backend() noexcept;

/// The active backend. First call resolves SPLPG_VEC (unknown or
/// unsupported values warn on stderr and fall back to vec_best_backend()).
[[nodiscard]] VecBackend vec_active_backend() noexcept;

/// The active backend's kernel table. Kernels in flight keep the table they
/// captured at entry; see set_vec_backend for switching.
[[nodiscard]] const VecKernels& vec_kernels() noexcept;

/// Kernel table of a specific SUPPORTED backend (asserts otherwise) —
/// lets tests/benches compare backends without switching the process.
[[nodiscard]] const VecKernels& vec_kernels_for(VecBackend backend) noexcept;

/// Switches the active backend; returns false (and changes nothing) if the
/// backend is not supported here. Not synchronized with kernels already
/// executing — call between computations (tests, bench sweeps).
bool set_vec_backend(VecBackend backend) noexcept;

[[nodiscard]] const char* vec_backend_name(VecBackend backend) noexcept;

/// "scalar|sse2|avx2|avx512" -> backend. Returns false on anything else.
[[nodiscard]] bool parse_vec_backend(std::string_view text, VecBackend& out) noexcept;

namespace detail {
// Per-backend table accessors, defined one per TU (vec_<backend>.cpp);
// nullptr when the backend is not compiled into this binary.
[[nodiscard]] const VecKernels* vec_table_scalar() noexcept;
[[nodiscard]] const VecKernels* vec_table_sse2() noexcept;
[[nodiscard]] const VecKernels* vec_table_avx2() noexcept;
[[nodiscard]] const VecKernels* vec_table_avx512() noexcept;
}  // namespace detail

}  // namespace splpg::tensor
