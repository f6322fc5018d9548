// AVX-512F backend: 16-lane float / 8-lane double, mask-register compares.
// Compiled with -mavx512f on this file only; sticks to the F foundation set
// (no DQ/BW instructions) so any AVX-512 machine can run it. Note the
// horizontal sums deliberately reuse the AVX2/SSE fold sequence after
// splitting halves, so reduction order is fixed per backend.

#include "tensor/vec.hpp"

#if defined(__AVX512F__) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace splpg::tensor {
namespace vec_avx512_impl {

struct Vecf {
  __m512 v;
  using Mask = __mmask16;
  static constexpr std::size_t kWidth = 16;

  static Vecf load(const float* p) { return {_mm512_loadu_ps(p)}; }
  static Vecf splat(float x) { return {_mm512_set1_ps(x)}; }
  static void store(float* p, Vecf a) { _mm512_storeu_ps(p, a.v); }

  static Vecf add(Vecf a, Vecf b) { return {_mm512_add_ps(a.v, b.v)}; }
  static Vecf sub(Vecf a, Vecf b) { return {_mm512_sub_ps(a.v, b.v)}; }
  static Vecf mul(Vecf a, Vecf b) { return {_mm512_mul_ps(a.v, b.v)}; }
  static Vecf div(Vecf a, Vecf b) { return {_mm512_div_ps(a.v, b.v)}; }
  static Vecf fma(Vecf a, Vecf b, Vecf c) { return {_mm512_fmadd_ps(a.v, b.v, c.v)}; }
  /// fma(a, b, c) in the lanes where a != 0, c where a == +-0.
  static Vecf fma_nonzero(Vecf a, Vecf b, Vecf c) {
    return {_mm512_mask3_fmadd_ps(a.v, b.v, c.v,
                                  _mm512_cmp_ps_mask(a.v, _mm512_setzero_ps(), _CMP_NEQ_UQ))};
  }
  static Vecf min(Vecf a, Vecf b) { return {_mm512_min_ps(a.v, b.v)}; }
  static Vecf max(Vecf a, Vecf b) { return {_mm512_max_ps(a.v, b.v)}; }
  static Vecf sqrt(Vecf a) { return {_mm512_sqrt_ps(a.v)}; }
  /// 0x09 = round toward -inf, suppress exceptions.
  static Vecf floor(Vecf a) { return {_mm512_roundscale_ps(a.v, 0x09)}; }

  static Vecf pow2i(Vecf n) {
    const __m512i e = _mm512_add_epi32(_mm512_cvttps_epi32(n.v), _mm512_set1_epi32(127));
    return {_mm512_castsi512_ps(_mm512_slli_epi32(e, 23))};
  }

  static Vecf frexp(Vecf x, Vecf* e) {
    const __m512i bits = _mm512_castps_si512(x.v);
    const __m512i exp = _mm512_sub_epi32(
        _mm512_and_si512(_mm512_srli_epi32(bits, 23), _mm512_set1_epi32(0xFF)),
        _mm512_set1_epi32(126));
    e->v = _mm512_cvtepi32_ps(exp);
    const __m512i mant = _mm512_or_si512(_mm512_and_si512(bits, _mm512_set1_epi32(0x007FFFFF)),
                                         _mm512_set1_epi32(0x3F000000));
    return {_mm512_castsi512_ps(mant)};
  }

  static Mask cmp_ge(Vecf a, Vecf b) { return _mm512_cmp_ps_mask(a.v, b.v, _CMP_GE_OQ); }
  static Mask cmp_lt(Vecf a, Vecf b) { return _mm512_cmp_ps_mask(a.v, b.v, _CMP_LT_OQ); }
  static Mask cmp_eq(Vecf a, Vecf b) { return _mm512_cmp_ps_mask(a.v, b.v, _CMP_EQ_OQ); }
  static Vecf select(Mask m, Vecf a, Vecf b) { return {_mm512_mask_blend_ps(m, b.v, a.v)}; }

  /// Fixed fold order: 512 -> 256 -> 128 -> pairwise. The 256-bit halves
  /// are extracted through the pd domain because _mm512_extractf32x8_ps
  /// needs AVX-512DQ.
  static float hsum(Vecf a) {
    const __m512d pd = _mm512_castps_pd(a.v);
    const __m256 lo = _mm256_castpd_ps(_mm512_castpd512_pd256(pd));
    const __m256 hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(pd, 1));
    const __m256 o = _mm256_add_ps(lo, hi);
    const __m128 q = _mm_add_ps(_mm256_castps256_ps128(o), _mm256_extractf128_ps(o, 1));
    const __m128 h = _mm_add_ps(q, _mm_movehl_ps(q, q));
    return _mm_cvtss_f32(_mm_add_ss(h, _mm_shuffle_ps(h, h, 0x55)));
  }
};

struct Vecd {
  __m512d v;
  static constexpr std::size_t kWidth = 8;

  static Vecd load(const double* p) { return {_mm512_loadu_pd(p)}; }
  static Vecd splat(double x) { return {_mm512_set1_pd(x)}; }
  static void store(double* p, Vecd a) { _mm512_storeu_pd(p, a.v); }

  static Vecd add(Vecd a, Vecd b) { return {_mm512_add_pd(a.v, b.v)}; }
  static Vecd mul(Vecd a, Vecd b) { return {_mm512_mul_pd(a.v, b.v)}; }
  static Vecd fma(Vecd a, Vecd b, Vecd c) { return {_mm512_fmadd_pd(a.v, b.v, c.v)}; }

  /// Hardware gather of 8 doubles by 32-bit indices; full blocks only
  /// (tails run scalar), so no masking needed.
  static Vecd gather(const double* base, const std::uint32_t* idx) {
    const __m256i vi = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx));
    return {_mm512_i32gather_pd(vi, base, 8)};
  }

  static double hsum(Vecd a) {
    const __m256d lo = _mm512_castpd512_pd256(a.v);
    const __m256d hi = _mm512_extractf64x4_pd(a.v, 1);
    const __m256d o = _mm256_add_pd(lo, hi);
    const __m128d s = _mm_add_pd(_mm256_castpd256_pd128(o), _mm256_extractf128_pd(o, 1));
    return _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s)));
  }
};

// GEMM tile, the only multi-row one (SSE2 and AVX2 run rows one at a time,
// which measured faster there at every zero share): 6 rows x 4 vectors
// (6 x 64 floats) = 24 of the 32 zmm accumulators, leaving room for the 4 B
// vectors and the broadcast.
inline constexpr std::size_t kGemmRows = 6;
inline constexpr std::size_t kGemmVecs = 4;
// Masked lanes are free here (mask registers). Forcing each path on the
// training shapes put the crossover at 65-80% zeros on the first layer and
// 80-90% on the hidden layers (serial); above 75% a call runs its rows one
// at a time over their nonzero terms.
inline constexpr double kGemmTileMaxZeros = 0.75;

}  // namespace vec_avx512_impl
}  // namespace splpg::tensor

#define SPLPG_VEC_NS vec_avx512_impl
#define SPLPG_VEC_NAME "avx512"
#define SPLPG_VEC_ENUM VecBackend::kAvx512
#define SPLPG_VEC_GEMM_TILE
#include "tensor/vec_kernels.inl"
#undef SPLPG_VEC_NS
#undef SPLPG_VEC_NAME
#undef SPLPG_VEC_ENUM
#undef SPLPG_VEC_GEMM_TILE

namespace splpg::tensor::detail {
const VecKernels* vec_table_avx512() noexcept { return &vec_avx512_impl::kTable; }
}  // namespace splpg::tensor::detail

#else  // compiler/arch cannot target AVX-512F: backend not compiled.

namespace splpg::tensor::detail {
const VecKernels* vec_table_avx512() noexcept { return nullptr; }
}  // namespace splpg::tensor::detail

#endif
