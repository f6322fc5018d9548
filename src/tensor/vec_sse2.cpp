// SSE2 backend: 4-lane float / 2-lane double. Baseline on x86-64 (no extra
// compile flags needed), so this is the narrowest SIMD tier and the one
// guaranteed present whenever the binary runs on x86 at all. No FMA unit at
// this ISA level — Vecf::fma lowers to mul+add, which only tightens the
// documented bounds.

#include "tensor/vec.hpp"

#if defined(__SSE2__) && (defined(__x86_64__) || defined(__i386__))

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

namespace splpg::tensor {
namespace vec_sse2_impl {

struct Vecf {
  __m128 v;
  using Mask = __m128;
  static constexpr std::size_t kWidth = 4;

  static Vecf load(const float* p) { return {_mm_loadu_ps(p)}; }
  static Vecf splat(float x) { return {_mm_set1_ps(x)}; }
  static void store(float* p, Vecf a) { _mm_storeu_ps(p, a.v); }

  static Vecf add(Vecf a, Vecf b) { return {_mm_add_ps(a.v, b.v)}; }
  static Vecf sub(Vecf a, Vecf b) { return {_mm_sub_ps(a.v, b.v)}; }
  static Vecf mul(Vecf a, Vecf b) { return {_mm_mul_ps(a.v, b.v)}; }
  static Vecf div(Vecf a, Vecf b) { return {_mm_div_ps(a.v, b.v)}; }
  static Vecf fma(Vecf a, Vecf b, Vecf c) { return add(mul(a, b), c); }
  static Vecf min(Vecf a, Vecf b) { return {_mm_min_ps(a.v, b.v)}; }
  static Vecf max(Vecf a, Vecf b) { return {_mm_max_ps(a.v, b.v)}; }
  static Vecf sqrt(Vecf a) { return {_mm_sqrt_ps(a.v)}; }

  /// floor() emulated via truncation + adjust (SSE4.1 round is unavailable).
  static Vecf floor(Vecf a) {
    const __m128 t = _mm_cvtepi32_ps(_mm_cvttps_epi32(a.v));
    const __m128 overshoot = _mm_cmpgt_ps(t, a.v);
    return {_mm_sub_ps(t, _mm_and_ps(overshoot, _mm_set1_ps(1.0F)))};
  }

  /// 2^n for integral-valued n in [-126, 127]: build the exponent field.
  static Vecf pow2i(Vecf n) {
    const __m128i e = _mm_add_epi32(_mm_cvttps_epi32(n.v), _mm_set1_epi32(127));
    return {_mm_castsi128_ps(_mm_slli_epi32(e, 23))};
  }

  /// Mantissa in [0.5, 1) and integral exponent (as float) for positive
  /// finite normal x.
  static Vecf frexp(Vecf x, Vecf* e) {
    const __m128i bits = _mm_castps_si128(x.v);
    const __m128i exp = _mm_sub_epi32(
        _mm_and_si128(_mm_srli_epi32(bits, 23), _mm_set1_epi32(0xFF)), _mm_set1_epi32(126));
    e->v = _mm_cvtepi32_ps(exp);
    const __m128i mant =
        _mm_or_si128(_mm_and_si128(bits, _mm_set1_epi32(0x007FFFFF)), _mm_set1_epi32(0x3F000000));
    return {_mm_castsi128_ps(mant)};
  }

  static Mask cmp_ge(Vecf a, Vecf b) { return _mm_cmpge_ps(a.v, b.v); }
  static Mask cmp_lt(Vecf a, Vecf b) { return _mm_cmplt_ps(a.v, b.v); }
  static Mask cmp_eq(Vecf a, Vecf b) { return _mm_cmpeq_ps(a.v, b.v); }
  static Vecf select(Mask m, Vecf a, Vecf b) {
    return {_mm_or_ps(_mm_and_ps(m, a.v), _mm_andnot_ps(m, b.v))};
  }

  /// Fixed fold order: (l0+l2) + (l1+l3).
  static float hsum(Vecf a) {
    const __m128 hi = _mm_movehl_ps(a.v, a.v);
    const __m128 s = _mm_add_ps(a.v, hi);
    const __m128 s1 = _mm_shuffle_ps(s, s, 0x55);
    return _mm_cvtss_f32(_mm_add_ss(s, s1));
  }
};

struct Vecd {
  __m128d v;
  static constexpr std::size_t kWidth = 2;

  static Vecd load(const double* p) { return {_mm_loadu_pd(p)}; }
  static Vecd splat(double x) { return {_mm_set1_pd(x)}; }
  static void store(double* p, Vecd a) { _mm_storeu_pd(p, a.v); }

  static Vecd add(Vecd a, Vecd b) { return {_mm_add_pd(a.v, b.v)}; }
  static Vecd mul(Vecd a, Vecd b) { return {_mm_mul_pd(a.v, b.v)}; }
  static Vecd fma(Vecd a, Vecd b, Vecd c) { return add(mul(a, b), c); }

  static Vecd gather(const double* base, const std::uint32_t* idx) {
    return {_mm_set_pd(base[idx[1]], base[idx[0]])};
  }

  static double hsum(Vecd a) {
    const __m128d hi = _mm_unpackhi_pd(a.v, a.v);
    return _mm_cvtsd_f64(_mm_add_sd(a.v, hi));
  }
};

}  // namespace vec_sse2_impl
}  // namespace splpg::tensor

#define SPLPG_VEC_NS vec_sse2_impl
#define SPLPG_VEC_NAME "sse2"
#define SPLPG_VEC_ENUM VecBackend::kSse2
#include "tensor/vec_kernels.inl"
#undef SPLPG_VEC_NS
#undef SPLPG_VEC_NAME
#undef SPLPG_VEC_ENUM

namespace splpg::tensor::detail {
const VecKernels* vec_table_sse2() noexcept { return &vec_sse2_impl::kTable; }
}  // namespace splpg::tensor::detail

#else  // non-x86 build: backend not compiled.

namespace splpg::tensor::detail {
const VecKernels* vec_table_sse2() noexcept { return nullptr; }
}  // namespace splpg::tensor::detail

#endif
