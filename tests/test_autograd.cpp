// Numerical gradient verification for every autograd op, plus DAG mechanics
// (gradient accumulation through shared subexpressions, topological order),
// and the activations against their per-element expressions, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "tensor/autograd.hpp"
#include "tensor/init.hpp"
#include "util/rng.hpp"

namespace splpg::tensor {
namespace {

using util::Rng;

/// Scalar-valued function of one parameter tensor; checks d(loss)/d(param)
/// against central finite differences.
void check_gradient(Tensor& param, const std::function<Tensor()>& loss_fn, double tolerance = 2e-2,
                    double epsilon = 1e-3) {
  Tensor loss = loss_fn();
  ASSERT_EQ(loss.rows(), 1U);
  ASSERT_EQ(loss.cols(), 1U);
  param.zero_grad();
  param.mutable_grad().resize(0, 0);
  loss.backward();
  ASSERT_FALSE(param.grad().empty()) << "no gradient reached the parameter";
  const Matrix analytic = param.grad();

  auto& value = param.mutable_value();
  for (std::size_t r = 0; r < value.rows(); ++r) {
    for (std::size_t c = 0; c < value.cols(); ++c) {
      const float saved = value.at(r, c);
      value.at(r, c) = saved + static_cast<float>(epsilon);
      const double up = loss_fn().item();
      value.at(r, c) = saved - static_cast<float>(epsilon);
      const double down = loss_fn().item();
      value.at(r, c) = saved;
      const double numeric = (up - down) / (2.0 * epsilon);
      EXPECT_NEAR(analytic.at(r, c), numeric, tolerance * std::max(1.0, std::abs(numeric)))
          << "at (" << r << ", " << c << ")";
    }
  }
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng, double scale = 1.0) {
  Matrix out(rows, cols);
  for (float& x : out.data()) x = static_cast<float>(rng.normal(0.0, scale));
  return out;
}

TEST(Autograd, MatmulGradLeft) {
  Rng rng(1);
  Tensor a = Tensor::parameter(random_matrix(3, 4, rng));
  const Tensor b = Tensor::constant(random_matrix(4, 5, rng));
  check_gradient(a, [&] { return mean_all(matmul(a, b)); });
}

TEST(Autograd, MatmulGradRight) {
  Rng rng(2);
  const Tensor a = Tensor::constant(random_matrix(3, 4, rng));
  Tensor b = Tensor::parameter(random_matrix(4, 5, rng));
  check_gradient(b, [&] { return mean_all(matmul(a, b)); });
}

TEST(Autograd, AddElementwiseGrad) {
  Rng rng(3);
  Tensor a = Tensor::parameter(random_matrix(4, 3, rng));
  const Tensor b = Tensor::constant(random_matrix(4, 3, rng));
  check_gradient(a, [&] { return mean_all(add(a, b)); });
}

TEST(Autograd, AddBroadcastBiasGrad) {
  Rng rng(4);
  const Tensor a = Tensor::constant(random_matrix(5, 3, rng));
  Tensor bias = Tensor::parameter(random_matrix(1, 3, rng));
  check_gradient(bias, [&] { return mean_all(sigmoid(add(a, bias))); });
}

TEST(Autograd, MulElementwiseGradBoth) {
  Rng rng(5);
  Tensor a = Tensor::parameter(random_matrix(3, 3, rng));
  Tensor b = Tensor::parameter(random_matrix(3, 3, rng));
  check_gradient(a, [&] { return mean_all(mul(a, b)); });
  check_gradient(b, [&] { return mean_all(mul(a, b)); });
}

TEST(Autograd, MulBroadcastColumnGrad) {
  Rng rng(6);
  Tensor a = Tensor::parameter(random_matrix(4, 3, rng));
  Tensor s = Tensor::parameter(random_matrix(4, 1, rng));
  check_gradient(a, [&] { return mean_all(mul(a, s)); });
  check_gradient(s, [&] { return mean_all(mul(a, s)); });
}

TEST(Autograd, ScaleGrad) {
  Rng rng(7);
  Tensor a = Tensor::parameter(random_matrix(3, 4, rng));
  check_gradient(a, [&] { return mean_all(scale(a, -2.5F)); });
}

TEST(Autograd, ConcatColsGradBoth) {
  Rng rng(8);
  Tensor a = Tensor::parameter(random_matrix(3, 2, rng));
  Tensor b = Tensor::parameter(random_matrix(3, 4, rng));
  const Tensor w = Tensor::constant(random_matrix(6, 1, rng));
  check_gradient(a, [&] { return mean_all(matmul(concat_cols(a, b), w)); });
  check_gradient(b, [&] { return mean_all(matmul(concat_cols(a, b), w)); });
}

TEST(Autograd, ReluGrad) {
  Rng rng(9);
  Tensor a = Tensor::parameter(random_matrix(4, 4, rng));
  // Keep entries away from the kink for finite differences.
  for (float& x : a.mutable_value().data()) {
    if (std::abs(x) < 0.05F) x += 0.2F;
  }
  check_gradient(a, [&] { return mean_all(relu(a)); });
}

TEST(Autograd, LeakyReluGrad) {
  Rng rng(10);
  Tensor a = Tensor::parameter(random_matrix(4, 4, rng));
  for (float& x : a.mutable_value().data()) {
    if (std::abs(x) < 0.05F) x += 0.2F;
  }
  check_gradient(a, [&] { return mean_all(leaky_relu(a, 0.2F)); });
}

TEST(Autograd, SigmoidGrad) {
  Rng rng(11);
  Tensor a = Tensor::parameter(random_matrix(3, 5, rng));
  check_gradient(a, [&] { return mean_all(sigmoid(a)); });
}

TEST(Autograd, TanhGrad) {
  Rng rng(12);
  Tensor a = Tensor::parameter(random_matrix(3, 5, rng));
  check_gradient(a, [&] { return mean_all(tanh_op(a)); });
}

TEST(Autograd, GatherRowsGrad) {
  Rng rng(13);
  Tensor a = Tensor::parameter(random_matrix(5, 3, rng));
  const std::vector<std::uint32_t> idx = {0, 2, 2, 4, 1};
  check_gradient(a, [&] { return mean_all(gather_rows(a, idx)); });
}

TEST(Autograd, SpmmEdgesGradFeatures) {
  Rng rng(14);
  Tensor feats = Tensor::parameter(random_matrix(6, 3, rng));
  const std::vector<std::uint32_t> src = {0, 1, 2, 3, 4, 5, 1};
  const std::vector<std::uint32_t> dst = {0, 0, 1, 1, 2, 2, 2};
  const Tensor coef = Tensor::constant(random_matrix(7, 1, rng));
  check_gradient(
      feats, [&] { return mean_all(spmm_edges(feats, coef, src, dst, 3)); });
}

TEST(Autograd, SpmmEdgesGradCoefficients) {
  Rng rng(15);
  const Tensor feats = Tensor::constant(random_matrix(6, 3, rng));
  const std::vector<std::uint32_t> src = {0, 1, 2, 3, 4, 5};
  const std::vector<std::uint32_t> dst = {0, 0, 1, 1, 2, 2};
  Tensor coef = Tensor::parameter(random_matrix(6, 1, rng));
  check_gradient(coef,
                 [&] { return mean_all(spmm_edges(feats, coef, src, dst, 3)); });
}

TEST(Autograd, SpmmEdgesUndefinedCoefIsAllOnes) {
  Rng rng(16);
  const Matrix feats_value = random_matrix(4, 2, rng);
  const Tensor feats = Tensor::constant(feats_value);
  const std::vector<std::uint32_t> src = {0, 1, 2, 3};
  const std::vector<std::uint32_t> dst = {0, 0, 1, 1};
  const Tensor out = spmm_edges(feats, Tensor{}, src, dst, 2);
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_FLOAT_EQ(out.value().at(0, c), feats_value.at(0, c) + feats_value.at(1, c));
    EXPECT_FLOAT_EQ(out.value().at(1, c), feats_value.at(2, c) + feats_value.at(3, c));
  }
}

TEST(Autograd, SegmentSoftmaxForwardSumsToOnePerGroup) {
  Rng rng(17);
  Tensor scores = Tensor::parameter(random_matrix(7, 1, rng));
  const std::vector<std::uint32_t> dst = {0, 0, 0, 1, 1, 2, 2};
  const Tensor soft = segment_softmax(scores, dst, 3);
  std::vector<double> sums(3, 0.0);
  for (std::size_t e = 0; e < 7; ++e) sums[dst[e]] += soft.value().at(e, 0);
  for (const double s : sums) EXPECT_NEAR(s, 1.0, 1e-5);
}

TEST(Autograd, SegmentSoftmaxGrad) {
  Rng rng(18);
  Tensor scores = Tensor::parameter(random_matrix(7, 1, rng));
  const std::vector<std::uint32_t> dst = {0, 0, 0, 1, 1, 2, 2};
  const Tensor weights = Tensor::constant(random_matrix(7, 1, rng));
  check_gradient(scores, [&] {
    return mean_all(mul(segment_softmax(scores, dst, 3), weights));
  });
}

TEST(Autograd, RowwiseDotGradBoth) {
  Rng rng(19);
  Tensor a = Tensor::parameter(random_matrix(4, 3, rng));
  Tensor b = Tensor::parameter(random_matrix(4, 3, rng));
  check_gradient(a, [&] { return mean_all(rowwise_dot(a, b)); });
  check_gradient(b, [&] { return mean_all(rowwise_dot(a, b)); });
}

TEST(Autograd, BceWithLogitsGrad) {
  Rng rng(20);
  Tensor logits = Tensor::parameter(random_matrix(6, 1, rng, 2.0));
  const std::vector<float> labels = {1.0F, 0.0F, 1.0F, 0.0F, 1.0F, 0.0F};
  check_gradient(logits, [&] { return bce_with_logits(logits, labels); });
}

TEST(Autograd, BceWithLogitsValueMatchesDefinition) {
  Matrix z(2, 1);
  z.at(0, 0) = 1.3F;
  z.at(1, 0) = -0.7F;
  const Tensor logits = Tensor::constant(z);
  const std::vector<float> labels = {1.0F, 0.0F};
  const double expected =
      0.5 * (std::log1p(std::exp(-1.3)) + std::log1p(std::exp(-0.7)));
  EXPECT_NEAR(bce_with_logits(logits, labels).item(), expected, 1e-6);
}

TEST(Autograd, BceWithLogitsStableForExtremeLogits) {
  Matrix z(2, 1);
  z.at(0, 0) = 80.0F;
  z.at(1, 0) = -80.0F;
  const Tensor logits = Tensor::constant(z);
  const std::vector<float> labels = {1.0F, 0.0F};
  const float loss = bce_with_logits(logits, labels).item();
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(Autograd, SharedSubexpressionAccumulatesGradients) {
  // loss = mean(a * a): d/da = 2a / n.
  Rng rng(21);
  Tensor a = Tensor::parameter(random_matrix(3, 3, rng));
  Tensor loss = mean_all(mul(a, a));
  loss.backward();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(a.grad().at(r, c), 2.0F * a.value().at(r, c) / 9.0F, 1e-5);
    }
  }
}

TEST(Autograd, DiamondGraphGradient) {
  // b = 2a; c = 3a; loss = mean(b + c) -> d/da = 5/n (two paths sum).
  Rng rng(22);
  Tensor a = Tensor::parameter(random_matrix(2, 2, rng));
  Tensor loss = mean_all(add(scale(a, 2.0F), scale(a, 3.0F)));
  loss.backward();
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(a.grad().at(i, j), 5.0F / 4.0F, 1e-5);
  }
}

TEST(Autograd, DeepChainGradient) {
  // 20 chained scalings by 1.1: gradient = 1.1^20 / n.
  Rng rng(23);
  Tensor a = Tensor::parameter(random_matrix(2, 2, rng));
  Tensor h = a;
  for (int i = 0; i < 20; ++i) h = scale(h, 1.1F);
  Tensor loss = mean_all(h);
  loss.backward();
  const double expected = std::pow(1.1, 20) / 4.0;
  EXPECT_NEAR(a.grad().at(0, 0), expected, 1e-3);
}

TEST(Autograd, ConstantsReceiveNoGradient) {
  Rng rng(24);
  const Tensor a = Tensor::constant(random_matrix(2, 2, rng));
  Tensor b = Tensor::parameter(random_matrix(2, 2, rng));
  Tensor loss = mean_all(mul(a, b));
  loss.backward();
  EXPECT_TRUE(a.grad().empty());
  EXPECT_FALSE(b.grad().empty());
}

TEST(Autograd, ZeroGradClears) {
  Rng rng(25);
  Tensor a = Tensor::parameter(random_matrix(2, 2, rng));
  mean_all(a).backward();
  EXPECT_FALSE(a.grad().empty());
  const float before = a.grad().at(0, 0);
  EXPECT_NE(before, 0.0F);
  a.zero_grad();
  EXPECT_FLOAT_EQ(a.grad().at(0, 0), 0.0F);
}

TEST(Autograd, BackwardTwiceAccumulates) {
  Rng rng(26);
  Tensor a = Tensor::parameter(random_matrix(2, 2, rng));
  mean_all(a).backward();
  const float once = a.grad().at(0, 0);
  mean_all(a).backward();
  EXPECT_NEAR(a.grad().at(0, 0), 2.0F * once, 1e-6);
}

// Composite: a 2-layer MLP-ish expression exercising many ops together.
TEST(Autograd, CompositeExpressionGradCheck) {
  Rng rng(30);
  Tensor w1 = Tensor::parameter(random_matrix(4, 6, rng, 0.5));
  Tensor w2 = Tensor::parameter(random_matrix(6, 1, rng, 0.5));
  const Tensor x = Tensor::constant(random_matrix(5, 4, rng));
  const std::vector<float> labels = {1, 0, 1, 1, 0};
  auto loss_fn = [&] { return bce_with_logits(matmul(relu(matmul(x, w1)), w2), labels); };
  check_gradient(w1, loss_fn);
  check_gradient(w2, loss_fn);
}

TEST(Autograd, MatmulPrefixGradBoth) {
  Rng rng(31);
  Tensor a = Tensor::parameter(random_matrix(5, 4, rng));
  Tensor b = Tensor::parameter(random_matrix(4, 3, rng));
  // Rows 3 and 4 of `a` lie past the prefix, so their gradient is zero.
  check_gradient(a, [&] { return mean_all(matmul_prefix(a, 3, b)); });
  check_gradient(b, [&] { return mean_all(matmul_prefix(a, 3, b)); });
  EXPECT_EQ(matmul_prefix(a, 3, b).rows(), 3U);
}

// ---- activations vs their per-element expressions ----
//
// relu, leaky_relu and tanh_op inline their scalar expressions into the
// elementwise loops. Forward and backward must equal those expressions
// evaluated one element at a time, bit for bit, on the IEEE edge cases.

/// +-0, +-denormals, +-Inf, NaN, large and ordinary magnitudes, cycled over
/// a 5 x 23 matrix: 115 elements, a multiple of no vector width, so the
/// loops run both their vector bodies and a tail.
Matrix activation_edge_inputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float big = std::numeric_limits<float>::max();
  const float cases[] = {0.0F,   -0.0F,  denorm, -denorm, 1e-39F, -1e-39F, inf,
                         -inf,   std::numeric_limits<float>::quiet_NaN(), big, -big,
                         1e30F,  -1e30F, 9.0F,   -9.0F,   0.5F,   -0.5F,   1e-20F,
                         -1e-20F};
  Matrix out(5, 23);
  std::size_t i = 0;
  for (float& x : out.data()) x = cases[i++ % std::size(cases)];
  return out;
}

bool same_bits(float x, float y) {
  return std::bit_cast<std::uint32_t>(x) == std::bit_cast<std::uint32_t>(y);
}

/// Runs `op` forward and backward over the edge inputs and compares every
/// element with `fn(x)` and with the accumulated `0 + g * dfn(y)`.
template <typename Op, typename Fn, typename Dfn>
void expect_activation_matches(const std::string& name, Op op, Fn fn, Dfn dfn) {
  Rng rng(37);
  const Tensor a = Tensor::parameter(activation_edge_inputs());
  Matrix upstream(a.rows(), a.cols());
  for (float& g : upstream.data()) {
    g = rng.bernoulli(0.2) ? (rng.bernoulli(0.5) ? -0.0F : 0.0F)
                           : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  const Tensor out = op(a);
  // A 1x1 head that hands `upstream` to out's gradient unchanged.
  Tensor head = make_op(Matrix(1, 1), {out}, [out, &upstream](detail::Node&) {
    out.node_ref().accumulate(upstream);
  });
  head.backward();
  const auto x = a.value().data();
  const auto y = out.value().data();
  const auto g = out.grad().data();  // what the activation's backward received
  const auto dx = a.grad().data();
  ASSERT_EQ(y.size(), x.size());
  ASSERT_EQ(dx.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(same_bits(y[i], fn(x[i]))) << name << " forward x=" << x[i] << " i=" << i;
    float want = 0.0F;
    want += g[i] * dfn(y[i]);
    EXPECT_TRUE(same_bits(dx[i], want)) << name << " backward x=" << x[i] << " i=" << i;
  }
}

TEST(Activations, ReluMatchesElementwiseExpressionBitwise) {
  expect_activation_matches(
      "relu", [](const Tensor& a) { return relu(a); },
      [](float x) { return x > 0.0F ? x : 0.0F; },
      [](float y) { return y > 0.0F ? 1.0F : 0.0F; });
}

TEST(Activations, LeakyReluMatchesElementwiseExpressionBitwise) {
  for (const float slope : {0.2F, 0.01F}) {
    expect_activation_matches(
        "leaky_relu " + std::to_string(slope),
        [slope](const Tensor& a) { return leaky_relu(a, slope); },
        [slope](float x) { return x > 0.0F ? x : slope * x; },
        [slope](float y) { return y > 0.0F ? 1.0F : slope; });
  }
}

TEST(Activations, TanhMatchesElementwiseExpressionBitwise) {
  expect_activation_matches(
      "tanh", [](const Tensor& a) { return tanh_op(a); }, [](float x) { return std::tanh(x); },
      [](float y) { return 1.0F - y * y; });
}

}  // namespace
}  // namespace splpg::tensor
