// Kernel-engine tests: backend registry/dispatch, per-backend known-answer
// checks, randomized scalar-vs-SIMD bound property tests (the documented
// ULP bounds from vec.hpp), the bit-identical-on-every-backend kernels
// (adam_step, sigmoid_grad, xpby, alpha=1 axpy), the GEMMs against the
// row-axpy loops they replaced and spmm_edges against its edge-order loops
// (bit for bit, per backend, serial and pooled), matmul_prefix against
// gather_rows + matmul (likewise), and a per-backend end-to-end training
// determinism matrix across thread widths {1,2,4,7}.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/autograd.hpp"
#include "tensor/matrix.hpp"
#include "tensor/parallel.hpp"
#include "tensor/vec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace splpg::tensor {
namespace {

constexpr VecBackend kAllBackends[] = {VecBackend::kScalar, VecBackend::kSse2,
                                       VecBackend::kAvx2, VecBackend::kAvx512};

std::vector<VecBackend> supported_backends() {
  std::vector<VecBackend> out;
  for (const VecBackend backend : kAllBackends) {
    if (vec_backend_supported(backend)) out.push_back(backend);
  }
  return out;
}

std::vector<VecBackend> simd_backends() {
  std::vector<VecBackend> out = supported_backends();
  out.erase(std::remove(out.begin(), out.end(), VecBackend::kScalar), out.end());
  return out;
}

/// Restores the process-wide active backend on scope exit.
class BackendGuard {
 public:
  BackendGuard() : previous_(vec_active_backend()) {}
  ~BackendGuard() { set_vec_backend(previous_); }

 private:
  VecBackend previous_;
};

/// Array sizes straddling every backend's vector width, its 2x-unrolled
/// stride, and ragged tails — including the {1, 2, 4, 7} widths the
/// training-level matrix uses as thread counts.
constexpr std::size_t kSizes[] = {1, 2, 4, 7, 8, 15, 16, 17, 31, 33, 64, 257, 1003};

std::vector<float> random_f32(std::size_t n, util::Rng& rng, float lo, float hi) {
  std::vector<float> out(n);
  for (float& x : out) x = lo + (hi - lo) * static_cast<float>(rng.uniform());
  return out;
}

std::vector<double> random_f64(std::size_t n, util::Rng& rng, double lo, double hi) {
  std::vector<double> out(n);
  for (double& x : out) x = lo + (hi - lo) * rng.uniform();
  return out;
}

// ---- registry / dispatch ----

TEST(VecBackendRegistry, ScalarIsAlwaysCompiledAndSupported) {
  EXPECT_TRUE(vec_backend_compiled(VecBackend::kScalar));
  EXPECT_TRUE(vec_backend_supported(VecBackend::kScalar));
  const VecKernels& kern = vec_kernels_for(VecBackend::kScalar);
  EXPECT_EQ(kern.backend, VecBackend::kScalar);
  EXPECT_EQ(kern.width_f32, 1U);
  EXPECT_EQ(kern.width_f64, 1U);
}

TEST(VecBackendRegistry, NamesRoundTripThroughParse) {
  for (const VecBackend backend : kAllBackends) {
    VecBackend parsed = VecBackend::kScalar;
    ASSERT_TRUE(parse_vec_backend(vec_backend_name(backend), parsed))
        << vec_backend_name(backend);
    EXPECT_EQ(parsed, backend);
  }
  VecBackend parsed = VecBackend::kScalar;
  EXPECT_FALSE(parse_vec_backend("", parsed));
  EXPECT_FALSE(parse_vec_backend("avx", parsed));
  EXPECT_FALSE(parse_vec_backend("AVX2", parsed));
  EXPECT_FALSE(parse_vec_backend("neon", parsed));
}

TEST(VecBackendRegistry, SupportedTablesAreComplete) {
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    EXPECT_EQ(kern.backend, backend);
    EXPECT_STREQ(kern.name, vec_backend_name(backend));
    EXPECT_GE(kern.width_f32, 1U);
    EXPECT_GE(kern.width_f64, 1U);
    EXPECT_NE(kern.axpy_f32, nullptr);
    EXPECT_NE(kern.dot_f32, nullptr);
    EXPECT_NE(kern.axpy_f64, nullptr);
    EXPECT_NE(kern.xpby_f64, nullptr);
    EXPECT_NE(kern.dot_f64, nullptr);
    EXPECT_NE(kern.spmv_row_f64, nullptr);
    EXPECT_NE(kern.exp_f32, nullptr);
    EXPECT_NE(kern.sigmoid_f32, nullptr);
    EXPECT_NE(kern.sigmoid_grad_f32, nullptr);
    EXPECT_NE(kern.bce_forward_f64, nullptr);
    EXPECT_NE(kern.bce_grad_f32, nullptr);
    EXPECT_NE(kern.adam_step_f32, nullptr);
    EXPECT_NE(kern.gemm_f32, nullptr);
  }
}

TEST(VecBackendRegistry, BestBackendIsSupportedAndWidest) {
  const VecBackend best = vec_best_backend();
  EXPECT_TRUE(vec_backend_supported(best));
  for (const VecBackend backend : supported_backends()) {
    EXPECT_LE(vec_kernels_for(backend).width_f32, vec_kernels_for(best).width_f32);
  }
}

TEST(VecBackendRegistry, SetBackendSwitchesActiveTable) {
  BackendGuard guard;
  for (const VecBackend backend : supported_backends()) {
    ASSERT_TRUE(set_vec_backend(backend));
    EXPECT_EQ(vec_active_backend(), backend);
    EXPECT_EQ(vec_kernels().backend, backend);
  }
  for (const VecBackend backend : kAllBackends) {
    if (vec_backend_supported(backend)) continue;
    const VecBackend before = vec_active_backend();
    EXPECT_FALSE(set_vec_backend(backend));
    EXPECT_EQ(vec_active_backend(), before);  // unchanged on failure
  }
}

// ---- known-answer tests (exact integer arithmetic: every backend must be
// exact, not just close) ----

TEST(VecKnownAnswer, AxpyF32) {
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    std::vector<float> dst(19);
    std::vector<float> src(19);
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst[i] = static_cast<float>(i);
      src[i] = static_cast<float>(2 * i + 1);
    }
    kern.axpy_f32(dst.data(), src.data(), 3.0F, dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i) {
      EXPECT_EQ(dst[i], static_cast<float>(i + 3 * (2 * i + 1))) << kern.name << " i=" << i;
    }
  }
}

TEST(VecKnownAnswer, DotF32) {
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    std::vector<float> a(23);
    std::vector<float> b(23);
    float expected = 0.0F;
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(i % 5) - 2.0F;
      b[i] = static_cast<float>(i % 7) - 3.0F;
      expected += a[i] * b[i];
    }
    // Small integers: every association of the sum is exact.
    EXPECT_EQ(kern.dot_f32(a.data(), b.data(), a.size()), expected) << kern.name;
    EXPECT_EQ(kern.dot_f32(a.data(), b.data(), 0), 0.0F) << kern.name;
  }
}

TEST(VecKnownAnswer, DoubleKernels) {
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    std::vector<double> a(13);
    std::vector<double> b(13);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<double>(i) - 6.0;
      b[i] = static_cast<double>(2 * i);
    }
    double dot = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
    EXPECT_EQ(kern.dot_f64(a.data(), b.data(), a.size()), dot) << kern.name;

    std::vector<double> dst = a;
    kern.axpy_f64(dst.data(), b.data(), 0.5, dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i) EXPECT_EQ(dst[i], a[i] + 0.5 * b[i]);

    dst = a;
    kern.xpby_f64(dst.data(), b.data(), 2.0, dst.size());
    for (std::size_t i = 0; i < dst.size(); ++i) EXPECT_EQ(dst[i], b[i] + 2.0 * a[i]);
  }
}

TEST(VecKnownAnswer, SpmvRowGathers) {
  // x indexed out of order, with repeats — exercises the gather path.
  const std::vector<double> x{10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0};
  const std::vector<std::uint32_t> cols{8, 0, 3, 3, 1, 7, 2, 5, 6, 4, 0};
  std::vector<double> vals(cols.size());
  for (std::size_t i = 0; i < vals.size(); ++i) vals[i] = static_cast<double>(i + 1);
  double expected = 0.0;
  for (std::size_t i = 0; i < vals.size(); ++i) expected += vals[i] * x[cols[i]];
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    EXPECT_EQ(kern.spmv_row_f64(vals.data(), cols.data(), x.data(), vals.size()), expected)
        << kern.name;
    EXPECT_EQ(kern.spmv_row_f64(vals.data(), cols.data(), x.data(), 0), 0.0) << kern.name;
  }
}

TEST(VecKnownAnswer, ExpAndSigmoidFixedPoints) {
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    // 32 zeros so the vector path (not just the tail) is exercised.
    std::vector<float> src(32, 0.0F);
    std::vector<float> dst(32, -1.0F);
    kern.exp_f32(dst.data(), src.data(), src.size());
    for (const float y : dst) EXPECT_EQ(y, 1.0F) << kern.name;  // exp(0) exact
    kern.sigmoid_f32(dst.data(), src.data(), src.size());
    for (const float y : dst) EXPECT_EQ(y, 0.5F) << kern.name;  // sigmoid(0) exact

    const std::vector<float> extremes(32, 40.0F);
    kern.sigmoid_f32(dst.data(), extremes.data(), extremes.size());
    for (const float y : dst) EXPECT_EQ(y, 1.0F) << kern.name;  // saturated high
    std::vector<float> negated(32, -40.0F);
    kern.sigmoid_f32(dst.data(), negated.data(), negated.size());
    for (const float y : dst) {
      EXPECT_GE(y, 0.0F) << kern.name;
      EXPECT_LT(y, 1e-15F) << kern.name;  // saturated low, never negative
    }
  }
}

TEST(VecKnownAnswer, BceForwardMatchesClosedForm) {
  // z = 0, y = 0.5: every term is exactly log(2); n * log(2) within float
  // rounding of the per-term transcendental.
  const std::size_t n = 40;
  const std::vector<float> logits(n, 0.0F);
  const std::vector<float> labels(n, 0.5F);
  const double expected = static_cast<double>(n) * std::log(2.0);
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    EXPECT_NEAR(kern.bce_forward_f64(logits.data(), labels.data(), n), expected, 1e-5)
        << kern.name;
  }
}

// ---- scalar-vs-SIMD bound property tests ----

TEST(VecUlpProperty, DotF32WithinReassociationBound) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(101);
  for (const VecBackend backend : simd_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    for (const std::size_t n : kSizes) {
      for (int round = 0; round < 4; ++round) {
        const auto a = random_f32(n, rng, -2.0F, 2.0F);
        const auto b = random_f32(n, rng, -2.0F, 2.0F);
        double magnitude = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          magnitude += std::abs(static_cast<double>(a[i]) * b[i]);
        }
        const double eps = std::numeric_limits<float>::epsilon();
        const double bound = 2.0 * (static_cast<double>(n) + 2.0) * eps * magnitude + 1e-12;
        const double got = kern.dot_f32(a.data(), b.data(), n);
        const double ref = scalar.dot_f32(a.data(), b.data(), n);
        EXPECT_LE(std::abs(got - ref), bound) << kern.name << " n=" << n;
      }
    }
  }
}

TEST(VecUlpProperty, DoubleReductionsWithinReassociationBound) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(103);
  for (const VecBackend backend : simd_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto a = random_f64(n, rng, -3.0, 3.0);
      const auto b = random_f64(n, rng, -3.0, 3.0);
      const double eps = std::numeric_limits<double>::epsilon();

      double dot_mag = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot_mag += std::abs(a[i] * b[i]);
      const double k = static_cast<double>(n) + 2.0;
      EXPECT_LE(std::abs(kern.dot_f64(a.data(), b.data(), n) -
                         scalar.dot_f64(a.data(), b.data(), n)),
                2.0 * k * eps * dot_mag + 1e-300)
          << kern.name << " dot n=" << n;

      // spmv row: gather indices into a shared x.
      std::vector<std::uint32_t> cols(n);
      for (std::size_t i = 0; i < n; ++i) {
        cols[i] = static_cast<std::uint32_t>(rng.uniform_u64(n));
      }
      double spmv_mag = 0.0;
      for (std::size_t i = 0; i < n; ++i) spmv_mag += std::abs(a[i] * b[cols[i]]);
      EXPECT_LE(std::abs(kern.spmv_row_f64(a.data(), cols.data(), b.data(), n) -
                         scalar.spmv_row_f64(a.data(), cols.data(), b.data(), n)),
                2.0 * k * eps * spmv_mag + 1e-300)
          << kern.name << " spmv n=" << n;
    }
  }
}

TEST(VecUlpProperty, ExpF32WithinTranscendentalBound) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(107);
  for (const VecBackend backend : simd_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    for (const std::size_t n : kSizes) {
      // Full finite range including the clamp regions at both ends.
      auto x = random_f32(n, rng, -95.0F, 85.0F);
      std::vector<float> got(n);
      std::vector<float> ref(n);
      kern.exp_f32(got.data(), x.data(), n);
      scalar.exp_f32(ref.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double diff = std::abs(static_cast<double>(got[i]) - ref[i]);
        // 16 ULP relative, plus the documented 2^-120 absolute floor where
        // the polynomial clamps instead of denormal-underflowing.
        const double bound = 16.0 * std::numeric_limits<float>::epsilon() *
                                 std::abs(static_cast<double>(ref[i])) +
                             std::ldexp(1.0, -120);
        EXPECT_LE(diff, bound) << kern.name << " x=" << x[i];
        EXPECT_GE(got[i], 0.0F) << kern.name << " x=" << x[i];
      }
    }
  }
}

TEST(VecUlpProperty, SigmoidF32WithinTranscendentalBound) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(109);
  for (const VecBackend backend : simd_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    for (const std::size_t n : kSizes) {
      auto x = random_f32(n, rng, -60.0F, 60.0F);
      std::vector<float> got(n);
      std::vector<float> ref(n);
      kern.sigmoid_f32(got.data(), x.data(), n);
      scalar.sigmoid_f32(ref.data(), x.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const double bound = 16.0 * std::numeric_limits<float>::epsilon() *
                                 std::abs(static_cast<double>(ref[i])) +
                             std::ldexp(1.0, -120);
        EXPECT_LE(std::abs(static_cast<double>(got[i]) - ref[i]), bound)
            << kern.name << " x=" << x[i];
      }
    }
  }
}

TEST(VecUlpProperty, BceForwardWithinSummedBound) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(113);
  for (const VecBackend backend : simd_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto logits = random_f32(n, rng, -30.0F, 30.0F);
      auto labels = random_f32(n, rng, 0.0F, 1.0F);
      for (float& y : labels) y = y < 0.5F ? 0.0F : 1.0F;
      const double got = kern.bce_forward_f64(logits.data(), labels.data(), n);
      const double ref = scalar.bce_forward_f64(logits.data(), labels.data(), n);
      double max_term = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        max_term = std::max(max_term, std::abs(static_cast<double>(logits[i])) + 1.0);
      }
      // Terms are summed in the same (ascending) order on every backend, so
      // the sum inherits the per-term transcendental bound.
      const double bound =
          static_cast<double>(n) *
          (16.0 * std::numeric_limits<float>::epsilon() * max_term + 1e-7);
      EXPECT_LE(std::abs(got - ref), bound) << kern.name << " n=" << n;
    }
  }
}

TEST(VecUlpProperty, BceGradWithinElementwiseBound) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(127);
  for (const VecBackend backend : simd_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    for (const std::size_t n : kSizes) {
      const auto logits = random_f32(n, rng, -30.0F, 30.0F);
      const auto labels = random_f32(n, rng, 0.0F, 1.0F);
      const float seed = 1.0F / 64.0F;
      std::vector<float> got(n);
      std::vector<float> ref(n);
      kern.bce_grad_f32(got.data(), logits.data(), labels.data(), seed, n);
      scalar.bce_grad_f32(ref.data(), logits.data(), labels.data(), seed, n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i], ref[i], 1e-6F * std::abs(seed) + 1e-9F)
            << kern.name << " i=" << i;
      }
    }
  }
}

// ---- bit-identical-on-every-backend kernels ----

TEST(VecBitIdentity, AdamStepIdenticalOnEveryBackend) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(131);
  for (const std::size_t n : kSizes) {
    const auto grad = random_f32(n, rng, -1.0F, 1.0F);
    const auto value0 = random_f32(n, rng, -1.0F, 1.0F);
    const auto m0 = random_f32(n, rng, -0.1F, 0.1F);
    const auto v0 = random_f32(n, rng, 0.0F, 0.1F);
    auto value_ref = value0;
    auto m_ref = m0;
    auto v_ref = v0;
    scalar.adam_step_f32(value_ref.data(), m_ref.data(), v_ref.data(), grad.data(), n, 0.9F,
                         0.999F, 1e-2F, 0.1F, 0.001F, 1e-8F);
    for (const VecBackend backend : simd_backends()) {
      const VecKernels& kern = vec_kernels_for(backend);
      auto value = value0;
      auto m = m0;
      auto v = v0;
      kern.adam_step_f32(value.data(), m.data(), v.data(), grad.data(), n, 0.9F, 0.999F,
                         1e-2F, 0.1F, 0.001F, 1e-8F);
      EXPECT_EQ(0, std::memcmp(value.data(), value_ref.data(), n * sizeof(float)))
          << kern.name << " n=" << n;
      EXPECT_EQ(0, std::memcmp(m.data(), m_ref.data(), n * sizeof(float)))
          << kern.name << " n=" << n;
      EXPECT_EQ(0, std::memcmp(v.data(), v_ref.data(), n * sizeof(float)))
          << kern.name << " n=" << n;
    }
  }
}

TEST(VecBitIdentity, SigmoidGradIdenticalOnEveryBackend) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(137);
  for (const std::size_t n : kSizes) {
    const auto grad = random_f32(n, rng, -2.0F, 2.0F);
    const auto y = random_f32(n, rng, 0.0F, 1.0F);
    std::vector<float> ref(n);
    scalar.sigmoid_grad_f32(ref.data(), grad.data(), y.data(), n);
    for (const VecBackend backend : simd_backends()) {
      const VecKernels& kern = vec_kernels_for(backend);
      std::vector<float> got(n);
      kern.sigmoid_grad_f32(got.data(), grad.data(), y.data(), n);
      EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), n * sizeof(float)))
          << kern.name << " n=" << n;
    }
  }
}

TEST(VecBitIdentity, XpbyAndUnitAxpyIdenticalOnEveryBackend) {
  const VecKernels& scalar = vec_kernels_for(VecBackend::kScalar);
  util::Rng rng(139);
  for (const std::size_t n : kSizes) {
    const auto src64 = random_f64(n, rng, -2.0, 2.0);
    const auto dst64 = random_f64(n, rng, -2.0, 2.0);
    const auto src32 = random_f32(n, rng, -2.0F, 2.0F);
    const auto dst32 = random_f32(n, rng, -2.0F, 2.0F);

    auto ref64 = dst64;
    scalar.xpby_f64(ref64.data(), src64.data(), 0.37, n);
    auto ref32 = dst32;
    scalar.axpy_f32(ref32.data(), src32.data(), 1.0F, n);

    for (const VecBackend backend : simd_backends()) {
      const VecKernels& kern = vec_kernels_for(backend);
      auto got64 = dst64;
      kern.xpby_f64(got64.data(), src64.data(), 0.37, n);
      EXPECT_EQ(0, std::memcmp(got64.data(), ref64.data(), n * sizeof(double)))
          << kern.name << " xpby n=" << n;
      // alpha = 1 products are exact, so even the FMA backends agree.
      auto got32 = dst32;
      kern.axpy_f32(got32.data(), src32.data(), 1.0F, n);
      EXPECT_EQ(0, std::memcmp(got32.data(), ref32.data(), n * sizeof(float)))
          << kern.name << " axpy1 n=" << n;
    }
  }
}

TEST(VecBitIdentity, SameBackendIsDeterministicCallToCall) {
  util::Rng rng(149);
  const std::size_t n = 257;
  const auto a = random_f32(n, rng, -5.0F, 5.0F);
  const auto b = random_f32(n, rng, -5.0F, 5.0F);
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    const float dot1 = kern.dot_f32(a.data(), b.data(), n);
    const float dot2 = kern.dot_f32(a.data(), b.data(), n);
    EXPECT_EQ(0, std::memcmp(&dot1, &dot2, sizeof(float))) << kern.name;
    std::vector<float> out1(n);
    std::vector<float> out2(n);
    kern.sigmoid_f32(out1.data(), a.data(), n);
    kern.sigmoid_f32(out2.data(), a.data(), n);
    EXPECT_EQ(0, std::memcmp(out1.data(), out2.data(), n * sizeof(float))) << kern.name;
  }
}

TEST(VecBitIdentity, ElementwiseTranscendentalsIgnorePosition) {
  // An element's exp/sigmoid must not depend on whether it lands in a full
  // vector or the remainder: segment_softmax runs exp over a whole edge
  // column, and a destination's attention weights may not observe how many
  // other edges share the call.
  util::Rng rng(151);
  const std::size_t n = 37;  // full vectors plus a remainder on every width
  const auto x = random_f32(n, rng, -20.0F, 20.0F);
  for (const VecBackend backend : supported_backends()) {
    const VecKernels& kern = vec_kernels_for(backend);
    std::vector<float> exp_all(n);
    std::vector<float> sigmoid_all(n);
    kern.exp_f32(exp_all.data(), x.data(), n);
    kern.sigmoid_f32(sigmoid_all.data(), x.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t len = 1; i + len <= n; len += 8) {
        std::vector<float> out(len);
        kern.exp_f32(out.data(), x.data() + i, len);
        EXPECT_EQ(0, std::memcmp(&out[0], &exp_all[i], sizeof(float)))
            << kern.name << " exp i=" << i << " len=" << len;
        kern.sigmoid_f32(out.data(), x.data() + i, len);
        EXPECT_EQ(0, std::memcmp(&out[0], &sigmoid_all[i], sizeof(float)))
            << kern.name << " sigmoid i=" << i << " len=" << len;
      }
    }
  }
}

// ---- GEMM: matmul_acc / matmul_tn_acc vs the row-axpy loops ----
//
// The reference is the pair of loops the GEMMs ran before the block kernel:
// one axpy_f32 per (output row, reduction index), reduction ascending, and
// alpha == 0 skipped. Every output element must
// come out byte for byte the same on every backend, at every pool width.

void row_loop_matmul_acc(const VecKernels& kern, const Matrix& a, const Matrix& b, Matrix& c) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const float alpha = a.at(i, p);
      if (alpha == 0.0F) continue;
      kern.axpy_f32(c.row(i).data(), b.row(p).data(), alpha, b.cols());
    }
  }
}

void row_loop_matmul_tn_acc(const VecKernels& kern, const Matrix& a, const Matrix& b,
                            Matrix& c) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t p = 0; p < a.cols(); ++p) {
      const float alpha = a.at(i, p);
      if (alpha == 0.0F) continue;
      kern.axpy_f32(c.row(p).data(), b.row(i).data(), alpha, b.cols());
    }
  }
}

struct GemmShape {
  std::size_t m, k, n;  // A is m x k; A*B uses B k x n, A^T*B uses B m x n
};

/// Every remainder: empty dimensions, row counts off every tile height,
/// widths with and without a tail on every vector width, the 1,433-deep
/// first-layer reduction, and A^T*B reductions longer than one panel.
constexpr GemmShape kSerialGemmShapes[] = {
    {0, 7, 17}, {7, 0, 17}, {7, 9, 0},     {1, 1, 1},      {5, 3, 1},       {7, 31, 33},
    {13, 1433, 17}, {50, 1433, 65}, {301, 37, 64}, {97, 19, 65}, {4, 64, 64}, {11, 6, 16}};
/// Large enough to cross the pool gate (m*k*n >= 2^15) except the last.
constexpr GemmShape kPooledGemmShapes[] = {
    {13, 1433, 17}, {301, 37, 64}, {50, 200, 65}, {97, 19, 65}, {7, 31, 33}};

/// The NaN bit pattern x86 generates for an invalid operation (0 * Inf,
/// Inf - Inf). Seeding B's NaNs with it leaves one NaN pattern in the whole
/// computation, so memcmp compares the arithmetic rather than which operand's
/// payload an instruction encoding happens to forward.
const float kDefaultNan = std::bit_cast<float>(0xFFC00000U);

struct GemmInputs {
  Matrix a, b_ab, b_tn, c_ab, c_tn;
};

/// A with `zero_share` of its entries zero (a third of those -0), B with
/// NaN and +-Inf sprinkled in when `poisoned`, C seeded with -0 on every
/// other entry and small values elsewhere.
GemmInputs make_gemm_inputs(const GemmShape& shape, double zero_share, bool poisoned,
                            util::Rng& rng) {
  GemmInputs in;
  const auto fill_b = [&](Matrix& b) {
    for (float& x : b.data()) {
      x = static_cast<float>(rng.uniform(-1.0, 1.0));
      if (poisoned && rng.bernoulli(0.03)) {
        const std::uint64_t pick = rng.uniform_u64(3);
        x = pick == 0 ? kDefaultNan
                      : (pick == 1 ? std::numeric_limits<float>::infinity()
                                   : -std::numeric_limits<float>::infinity());
      }
    }
  };
  const auto fill_c = [&](Matrix& c) {
    std::size_t index = 0;
    for (float& x : c.data()) {
      x = (index++ % 2 == 0) ? -0.0F : static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  };
  in.a = Matrix(shape.m, shape.k);
  for (float& x : in.a.data()) {
    x = static_cast<float>(rng.uniform(-1.0, 1.0));
    if (rng.bernoulli(zero_share)) x = rng.bernoulli(1.0 / 3.0) ? -0.0F : 0.0F;
  }
  in.b_ab = Matrix(shape.k, shape.n);
  in.b_tn = Matrix(shape.m, shape.n);
  fill_b(in.b_ab);
  fill_b(in.b_tn);
  in.c_ab = Matrix(shape.m, shape.n);
  in.c_tn = Matrix(shape.k, shape.n);
  fill_c(in.c_ab);
  fill_c(in.c_tn);
  return in;
}

bool same_bytes(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) && x.size() == y.size() &&
         (x.size() == 0 ||
          std::memcmp(x.data().data(), y.data().data(), x.size() * sizeof(float)) == 0);
}

/// Runs both GEMMs under every (backend, zero share, poison) case and
/// each pool width in `widths` (0 = no pool), comparing with the row loops.
void expect_gemms_match_row_loops(std::span<const GemmShape> shapes,
                                  std::span<const std::size_t> widths) {
  BackendGuard guard;
  util::Rng rng(4099);
  for (const VecBackend backend : supported_backends()) {
    ASSERT_TRUE(set_vec_backend(backend));
    const VecKernels& kern = vec_kernels_for(backend);
    // 0.05: tile steps mix plain and masked rows; 0.5: some tile steps skip
    // outright; 0.75: calls fall on both sides of AVX-512's tile threshold;
    // 0.9: rows run one at a time.
    for (const double zero_share : {0.0, 0.05, 0.5, 0.75, 0.9}) {
      for (const bool poisoned : {false, true}) {
        for (const GemmShape& shape : shapes) {
          const GemmInputs in = make_gemm_inputs(shape, zero_share, poisoned, rng);
          Matrix want_ab = in.c_ab;
          Matrix want_tn = in.c_tn;
          row_loop_matmul_acc(kern, in.a, in.b_ab, want_ab);
          row_loop_matmul_tn_acc(kern, in.a, in.b_tn, want_tn);
          for (const std::size_t width : widths) {
            std::optional<util::ThreadPool> pool;
            if (width > 0) pool.emplace(width);
            const ComputePoolScope scope(pool ? &*pool : nullptr);
            Matrix got_ab = in.c_ab;
            Matrix got_tn = in.c_tn;
            matmul_acc(in.a, in.b_ab, got_ab);
            matmul_tn_acc(in.a, in.b_tn, got_tn);
            const std::string what =
                std::string(kern.name) + " m=" + std::to_string(shape.m) +
                " k=" + std::to_string(shape.k) + " n=" + std::to_string(shape.n) +
                " zeros=" + std::to_string(zero_share) +
                " poisoned=" + std::to_string(poisoned) + " pool=" + std::to_string(width);
            EXPECT_TRUE(same_bytes(got_ab, want_ab)) << "A*B " << what;
            EXPECT_TRUE(same_bytes(got_tn, want_tn)) << "A^T*B " << what;
          }
        }
      }
    }
  }
}

TEST(VecGemmBitIdentity, SerialMatchesRowAxpyLoops) {
  constexpr std::size_t kWidths[] = {0};
  expect_gemms_match_row_loops(kSerialGemmShapes, kWidths);
}

TEST(VecGemmBitIdentity, PooledMatchesRowAxpyLoops) {
  constexpr std::size_t kWidths[] = {2, 4, 7};
  expect_gemms_match_row_loops(kPooledGemmShapes, kWidths);
}

// ---- spmm_edges vs the edge-order loops ----
//
// The reference is the three loops spmm_edges ran serially before it walked
// edges grouped by output row: in ascending e, one axpy_f32 of a's source
// row into the destination row (forward), one axpy_f32 of the upstream
// gradient's destination row into da's source row (input gradient), and
// one dot_f32 per edge (coefficient gradient). Every output element must
// come out byte for byte the same on every backend, at every pool width.

struct SpmmEdgeCase {
  std::string name;
  std::size_t num_src = 0;
  std::size_t num_dst = 0;
  std::vector<std::uint32_t> src;
  std::vector<std::uint32_t> dst;

  void add(std::uint64_t s, std::uint64_t d) {
    src.push_back(static_cast<std::uint32_t>(s));
    dst.push_back(static_cast<std::uint32_t>(d));
  }
};

/// ~700 edges each, so E x width crosses the pool gate at every tested
/// width and the pooled runs really fan out.
std::vector<SpmmEdgeCase> spmm_edge_cases() {
  util::Rng rng(7331);
  std::vector<SpmmEdgeCase> cases;
  // Endpoints drawn uniformly: destination rows interleave in edge order.
  SpmmEdgeCase random_order{"random_order", 160, 80, {}, {}};
  for (int e = 0; e < 700; ++e) random_order.add(rng.uniform_u64(160), rng.uniform_u64(80));
  cases.push_back(random_order);
  // A sampled block (edges grouped by destination, as the sampler emits
  // them), then GAT's self-loops appended after it: destination d reads
  // source d, since destinations are the prefix of the sources.
  SpmmEdgeCase self_loops{"self_loops_appended", 160, 80, {}, {}};
  for (std::uint64_t d = 0; d < 80; ++d) {
    for (int k = 0; k < 8; ++k) self_loops.add(rng.uniform_u64(160), d);
  }
  for (std::uint64_t d = 0; d < 80; ++d) self_loops.add(d, d);
  cases.push_back(self_loops);
  // Repeated (src, dst) pairs: some back to back, and the first 200 edges
  // again at the end.
  SpmmEdgeCase repeated{"repeated_pairs", 160, 80, {}, {}};
  for (int e = 0; e < 350; ++e) {
    const std::uint64_t s = rng.uniform_u64(160);
    const std::uint64_t d = rng.uniform_u64(80);
    repeated.add(s, d);
    if (rng.bernoulli(0.5)) repeated.add(s, d);
  }
  for (std::size_t e = 0; e < 200; ++e) repeated.add(repeated.src[e], repeated.dst[e]);
  cases.push_back(repeated);
  // Only even destinations and sources below 100 have edges: odd rows of
  // the output and rows >= 100 of the input gradient stay zero.
  SpmmEdgeCase sparse_rows{"empty_destinations", 160, 81, {}, {}};
  for (int e = 0; e < 700; ++e) sparse_rows.add(rng.uniform_u64(100), 2 * rng.uniform_u64(41));
  cases.push_back(sparse_rows);
  return cases;
}

Matrix uniform_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix out(rows, cols);
  for (float& x : out.data()) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

/// Runs spmm_edges forward and backward on every (backend, edge case,
/// width, coefficients present or absent) and each pool width in `widths`
/// (0 = no pool), comparing with the edge-order loops.
void expect_spmm_matches_edge_loops(std::span<const std::size_t> widths) {
  BackendGuard guard;
  util::Rng rng(6007);
  const std::vector<SpmmEdgeCase> cases = spmm_edge_cases();
  for (const VecBackend backend : supported_backends()) {
    ASSERT_TRUE(set_vec_backend(backend));
    const VecKernels& kern = vec_kernels_for(backend);
    for (const SpmmEdgeCase& edges : cases) {
      const std::size_t num_edges = edges.src.size();
      for (const std::size_t width : {std::size_t{1433}, std::size_t{64}, std::size_t{61}}) {
        for (const bool with_coef : {true, false}) {
          const Matrix a_value = uniform_matrix(edges.num_src, width, rng);
          const Matrix coef_value = uniform_matrix(num_edges, 1, rng);
          const Matrix upstream = uniform_matrix(edges.num_dst, width, rng);
          const auto coef_of = [&](std::size_t e) {
            return with_coef ? coef_value.at(e, 0) : 1.0F;
          };
          Matrix want_out(edges.num_dst, width);
          for (std::size_t e = 0; e < num_edges; ++e) {
            kern.axpy_f32(want_out.row(edges.dst[e]).data(), a_value.row(edges.src[e]).data(),
                          coef_of(e), width);
          }
          for (const std::size_t pool_width : widths) {
            std::optional<util::ThreadPool> pool;
            if (pool_width > 0) pool.emplace(pool_width);
            const ComputePoolScope scope(pool ? &*pool : nullptr);
            const Tensor a = Tensor::parameter(a_value);
            const Tensor coef = with_coef ? Tensor::parameter(coef_value) : Tensor();
            const Tensor out = spmm_edges(a, coef, edges.src, edges.dst, edges.num_dst);
            // A 1x1 head that hands `upstream` to out's gradient unchanged.
            Tensor head = make_op(Matrix(1, 1), {out}, [out, &upstream](detail::Node&) {
              out.node_ref().accumulate(upstream);
            });
            head.backward();

            // The backward references read the gradient spmm_edges received,
            // and accumulate into zeros as the autograd leaves do.
            const Matrix& grad = out.grad();
            Matrix want_da(edges.num_src, width);
            Matrix want_dc(num_edges, 1);
            for (std::size_t e = 0; e < num_edges; ++e) {
              kern.axpy_f32(want_da.row(edges.src[e]).data(), grad.row(edges.dst[e]).data(),
                            coef_of(e), width);
              want_dc.at(e, 0) = kern.dot_f32(grad.row(edges.dst[e]).data(),
                                              a_value.row(edges.src[e]).data(), width);
            }
            Matrix want_a_grad(edges.num_src, width);
            want_a_grad.add_inplace(want_da);
            Matrix want_coef_grad(num_edges, 1);
            want_coef_grad.add_inplace(want_dc);

            const std::string what = std::string(kern.name) + " " + edges.name +
                                     " width=" + std::to_string(width) +
                                     " coef=" + std::to_string(with_coef) +
                                     " pool=" + std::to_string(pool_width);
            EXPECT_TRUE(same_bytes(out.value(), want_out)) << "forward " << what;
            EXPECT_TRUE(same_bytes(a.grad(), want_a_grad)) << "input grad " << what;
            if (with_coef) {
              EXPECT_TRUE(same_bytes(coef.grad(), want_coef_grad)) << "coef grad " << what;
            }
          }
        }
      }
    }
  }
}

TEST(VecSpmmEdges, SerialMatchesEdgeOrderLoops) {
  constexpr std::size_t kWidths[] = {0};
  expect_spmm_matches_edge_loops(kWidths);
}

TEST(VecSpmmEdges, PooledMatchesEdgeOrderLoops) {
  constexpr std::size_t kWidths[] = {2, 4, 7};
  expect_spmm_matches_edge_loops(kWidths);
}

// ---- matmul_prefix vs gather_rows + matmul ----
//
// SageConv's self term multiplies the destination prefix of its input in
// place. The reference is the composition that term ran before:
// gather_rows of rows [0, rows), then matmul. The value, the input's
// gradient and the weight's gradient must come out byte for byte the same
// on every backend, at every pool width, with the input a constant and a
// requires-grad tensor.

struct PrefixShape {
  std::size_t src_rows, k, n;  // the input is src_rows x k, the weight k x n
};

/// A 1,433-deep first-layer reduction with a tail on every vector width,
/// a hidden-layer shape, and one below the pool gate.
constexpr PrefixShape kPrefixShapes[] = {{97, 1433, 17}, {61, 64, 64}, {13, 37, 65}};

/// The product's value and the gradients its inputs accumulated.
struct PrefixRun {
  Matrix value, input_grad, weight_grad;
};

PrefixRun run_prefix_product(bool gather, const Matrix& input, const Matrix& weight,
                             const Matrix& upstream, std::size_t rows, bool input_grad) {
  const Tensor a = input_grad ? Tensor::parameter(input) : Tensor::constant(input);
  const Tensor w = Tensor::parameter(weight);
  std::vector<std::uint32_t> prefix(rows);
  for (std::size_t i = 0; i < rows; ++i) prefix[i] = static_cast<std::uint32_t>(i);
  const Tensor out = gather ? matmul(gather_rows(a, prefix), w) : matmul_prefix(a, rows, w);
  // A 1x1 head that hands `upstream` to out's gradient unchanged.
  Tensor head = make_op(Matrix(1, 1), {out}, [out, &upstream](detail::Node&) {
    out.node_ref().accumulate(upstream);
  });
  head.backward();
  return {out.value(), a.grad(), w.grad()};
}

/// Compares matmul_prefix with gather + matmul on every (backend, shape,
/// rows in {1, S-1, S}, constant or requires-grad input) and each pool
/// width in `widths` (0 = no pool).
void expect_prefix_matches_gather_then_matmul(std::span<const std::size_t> widths) {
  BackendGuard guard;
  util::Rng rng(9173);
  for (const VecBackend backend : supported_backends()) {
    ASSERT_TRUE(set_vec_backend(backend));
    for (const PrefixShape& shape : kPrefixShapes) {
      // A quarter of the input is zero, a third of that -0.
      Matrix input(shape.src_rows, shape.k);
      for (float& x : input.data()) {
        x = static_cast<float>(rng.uniform(-1.0, 1.0));
        if (rng.bernoulli(0.25)) x = rng.bernoulli(1.0 / 3.0) ? -0.0F : 0.0F;
      }
      const Matrix weight = uniform_matrix(shape.k, shape.n, rng);
      for (const std::size_t rows : {std::size_t{1}, shape.src_rows - 1, shape.src_rows}) {
        const Matrix upstream = uniform_matrix(rows, shape.n, rng);
        for (const bool input_grad : {false, true}) {
          for (const std::size_t width : widths) {
            std::optional<util::ThreadPool> pool;
            if (width > 0) pool.emplace(width);
            const ComputePoolScope scope(pool ? &*pool : nullptr);
            const PrefixRun want =
                run_prefix_product(true, input, weight, upstream, rows, input_grad);
            const PrefixRun got =
                run_prefix_product(false, input, weight, upstream, rows, input_grad);
            const std::string what =
                std::string(vec_backend_name(backend)) + " S=" + std::to_string(shape.src_rows) +
                " k=" + std::to_string(shape.k) + " n=" + std::to_string(shape.n) +
                " rows=" + std::to_string(rows) + " input_grad=" + std::to_string(input_grad) +
                " pool=" + std::to_string(width);
            EXPECT_TRUE(same_bytes(got.value, want.value)) << "value " << what;
            EXPECT_TRUE(same_bytes(got.input_grad, want.input_grad)) << "input grad " << what;
            EXPECT_TRUE(same_bytes(got.weight_grad, want.weight_grad)) << "weight grad " << what;
            EXPECT_EQ(got.input_grad.empty(), !input_grad) << what;
          }
        }
      }
    }
  }
}

TEST(VecMatmulPrefix, SerialMatchesGatherThenMatmul) {
  constexpr std::size_t kWidths[] = {0};
  expect_prefix_matches_gather_then_matmul(kWidths);
}

TEST(VecMatmulPrefix, PooledMatchesGatherThenMatmul) {
  constexpr std::size_t kWidths[] = {2, 4, 7};
  expect_prefix_matches_gather_then_matmul(kWidths);
}

// ---- end-to-end: per-backend training determinism matrix ----

void expect_bitwise_same_training(const core::TrainResult& a, const core::TrainResult& b,
                                  const std::string& what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].mean_loss, b.history[e].mean_loss) << what << " epoch " << e;
    EXPECT_EQ(a.history[e].val_hits, b.history[e].val_hits) << what << " epoch " << e;
  }
  EXPECT_EQ(a.test_hits, b.test_hits) << what;
  EXPECT_EQ(a.test_auc, b.test_auc) << what;
  const auto& pa = a.model->parameters();
  const auto& pb = b.model->parameters();
  ASSERT_EQ(pa.size(), pb.size()) << what;
  for (std::size_t p = 0; p < pa.size(); ++p) {
    const auto da = pa[p].value().data();
    const auto db = pb[p].value().data();
    ASSERT_EQ(da.size(), db.size()) << what;
    EXPECT_EQ(0, std::memcmp(da.data(), db.data(), da.size() * sizeof(float)))
        << what << " param " << p;
  }
}

/// Same backend + same seed must give the same bytes at EVERY thread width
/// — the second tier of the determinism contract, checked end to end
/// through sampling, GEMM, aggregation, loss, and Adam.
TEST(VecTrainingMatrix, EveryBackendIsDeterministicAcrossWidthsAndDepths) {
  BackendGuard guard;
  const auto dataset = data::make_dataset("cora", 0.08, 5150);
  util::Rng split_rng = util::Rng(5150).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  core::TrainConfig base;
  base.method = core::Method::kSplpg;
  base.model.hidden_dim = 8;
  base.model.num_layers = 2;
  base.epochs = 2;
  base.batch_size = 32;
  base.num_partitions = 2;
  base.max_batches_per_epoch = 2;
  base.seed = 5150;

  for (const VecBackend backend : supported_backends()) {
    ASSERT_TRUE(set_vec_backend(backend));
    const std::string name = vec_backend_name(backend);
    const core::TrainResult baseline =
        core::train_link_prediction(split, dataset.features, base);
    for (const std::size_t threads : {2U, 4U, 7U}) {
      core::TrainConfig variant = base;
      variant.worker_threads = threads;
      expect_bitwise_same_training(
          baseline, core::train_link_prediction(split, dataset.features, variant),
          name + " threads=" + std::to_string(threads));
    }
  }
}

/// Scalar and SIMD runs see the same data and make the same decisions; the
/// float results may differ only within accumulated kernel bounds. Loose
/// end-to-end sanity: losses track closely, metrics are sane.
TEST(VecTrainingMatrix, SimdLossTracksScalarLoss) {
  BackendGuard guard;
  const auto dataset = data::make_dataset("citeseer", 0.08, 86);
  util::Rng split_rng = util::Rng(86).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  core::TrainConfig config;
  config.method = core::Method::kCentralized;
  config.model.hidden_dim = 8;
  config.model.num_layers = 2;
  config.epochs = 2;
  config.batch_size = 32;
  config.num_partitions = 1;
  config.max_batches_per_epoch = 2;
  config.seed = 86;

  ASSERT_TRUE(set_vec_backend(VecBackend::kScalar));
  const core::TrainResult scalar_run =
      core::train_link_prediction(split, dataset.features, config);
  for (const VecBackend backend : simd_backends()) {
    ASSERT_TRUE(set_vec_backend(backend));
    const core::TrainResult simd_run =
        core::train_link_prediction(split, dataset.features, config);
    ASSERT_EQ(scalar_run.history.size(), simd_run.history.size());
    for (std::size_t e = 0; e < scalar_run.history.size(); ++e) {
      EXPECT_NEAR(scalar_run.history[e].mean_loss, simd_run.history[e].mean_loss, 1e-3)
          << vec_backend_name(backend) << " epoch " << e;
    }
  }
}

}  // namespace
}  // namespace splpg::tensor
