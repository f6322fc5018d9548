// AVX2+FMA backend: 8-lane float / 4-lane double, hardware FMA, hardware
// gathers for the CSR spmv row kernel. Compiled with -mavx2 -mfma on this
// file only (src/CMakeLists.txt); the dispatcher never calls into it unless
// __builtin_cpu_supports confirms both features at runtime.

#include "tensor/vec.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace splpg::tensor {
namespace vec_avx2_impl {

struct Vecf {
  __m256 v;
  using Mask = __m256;
  static constexpr std::size_t kWidth = 8;

  static Vecf load(const float* p) { return {_mm256_loadu_ps(p)}; }
  static Vecf splat(float x) { return {_mm256_set1_ps(x)}; }
  static void store(float* p, Vecf a) { _mm256_storeu_ps(p, a.v); }

  static Vecf add(Vecf a, Vecf b) { return {_mm256_add_ps(a.v, b.v)}; }
  static Vecf sub(Vecf a, Vecf b) { return {_mm256_sub_ps(a.v, b.v)}; }
  static Vecf mul(Vecf a, Vecf b) { return {_mm256_mul_ps(a.v, b.v)}; }
  static Vecf div(Vecf a, Vecf b) { return {_mm256_div_ps(a.v, b.v)}; }
  static Vecf fma(Vecf a, Vecf b, Vecf c) { return {_mm256_fmadd_ps(a.v, b.v, c.v)}; }
  static Vecf min(Vecf a, Vecf b) { return {_mm256_min_ps(a.v, b.v)}; }
  static Vecf max(Vecf a, Vecf b) { return {_mm256_max_ps(a.v, b.v)}; }
  static Vecf sqrt(Vecf a) { return {_mm256_sqrt_ps(a.v)}; }
  static Vecf floor(Vecf a) { return {_mm256_floor_ps(a.v)}; }

  static Vecf pow2i(Vecf n) {
    const __m256i e = _mm256_add_epi32(_mm256_cvttps_epi32(n.v), _mm256_set1_epi32(127));
    return {_mm256_castsi256_ps(_mm256_slli_epi32(e, 23))};
  }

  static Vecf frexp(Vecf x, Vecf* e) {
    const __m256i bits = _mm256_castps_si256(x.v);
    const __m256i exp = _mm256_sub_epi32(
        _mm256_and_si256(_mm256_srli_epi32(bits, 23), _mm256_set1_epi32(0xFF)),
        _mm256_set1_epi32(126));
    e->v = _mm256_cvtepi32_ps(exp);
    const __m256i mant = _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi32(0x007FFFFF)),
                                         _mm256_set1_epi32(0x3F000000));
    return {_mm256_castsi256_ps(mant)};
  }

  static Mask cmp_ge(Vecf a, Vecf b) { return _mm256_cmp_ps(a.v, b.v, _CMP_GE_OQ); }
  static Mask cmp_lt(Vecf a, Vecf b) { return _mm256_cmp_ps(a.v, b.v, _CMP_LT_OQ); }
  static Mask cmp_eq(Vecf a, Vecf b) { return _mm256_cmp_ps(a.v, b.v, _CMP_EQ_OQ); }
  static Vecf select(Mask m, Vecf a, Vecf b) { return {_mm256_blendv_ps(b.v, a.v, m)}; }

  /// Fixed fold order: halves first, then the SSE pairwise fold.
  static float hsum(Vecf a) {
    const __m128 lo = _mm256_castps256_ps128(a.v);
    const __m128 hi = _mm256_extractf128_ps(a.v, 1);
    const __m128 q = _mm_add_ps(lo, hi);
    const __m128 h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    return _mm_cvtss_f32(_mm_add_ss(h, _mm_shuffle_ps(h, h, 0x55)));
  }
};

struct Vecd {
  __m256d v;
  static constexpr std::size_t kWidth = 4;

  static Vecd load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static Vecd splat(double x) { return {_mm256_set1_pd(x)}; }
  static void store(double* p, Vecd a) { _mm256_storeu_pd(p, a.v); }

  static Vecd add(Vecd a, Vecd b) { return {_mm256_add_pd(a.v, b.v)}; }
  static Vecd mul(Vecd a, Vecd b) { return {_mm256_mul_pd(a.v, b.v)}; }
  static Vecd fma(Vecd a, Vecd b, Vecd c) { return {_mm256_fmadd_pd(a.v, b.v, c.v)}; }

  /// Hardware gather of 4 doubles by 32-bit indices. Only ever called with
  /// a full block of kWidth valid indices (tails run scalar), so the
  /// unmasked form never reads an out-of-range index.
  static Vecd gather(const double* base, const std::uint32_t* idx) {
    const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx));
    return {_mm256_i32gather_pd(base, vi, 8)};
  }

  static double hsum(Vecd a) {
    const __m128d lo = _mm256_castpd256_pd128(a.v);
    const __m128d hi = _mm256_extractf128_pd(a.v, 1);
    const __m128d s = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
};

}  // namespace vec_avx2_impl
}  // namespace splpg::tensor

#define SPLPG_VEC_NS vec_avx2_impl
#define SPLPG_VEC_NAME "avx2"
#define SPLPG_VEC_ENUM VecBackend::kAvx2
#include "tensor/vec_kernels.inl"
#undef SPLPG_VEC_NS
#undef SPLPG_VEC_NAME
#undef SPLPG_VEC_ENUM

namespace splpg::tensor::detail {
const VecKernels* vec_table_avx2() noexcept { return &vec_avx2_impl::kTable; }
}  // namespace splpg::tensor::detail

#else  // compiler/arch cannot target AVX2: backend not compiled.

namespace splpg::tensor::detail {
const VecKernels* vec_table_avx2() noexcept { return nullptr; }
}  // namespace splpg::tensor::detail

#endif
