// Tests for the nn module: layers, GNN convolutions on blocks, predictors,
// the full model, optimizers, and parameter plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/gnn_layers.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "nn/predictor.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/init.hpp"

namespace splpg::nn {
namespace {

using sampling::Block;
using tensor::Matrix;
using tensor::Tensor;
using util::Rng;

/// Block with 2 destinations (nodes 0, 1) and 4 sources; edges:
/// 2->0, 3->0, 1->1 (dst 1's neighbor is src index 1 itself? no: distinct).
Block tiny_block() {
  Block block;
  block.src_nodes = {10, 11, 12, 13};  // global ids (unused by layers)
  block.dst_count = 2;
  block.edge_src = {2, 3, 3};
  block.edge_dst = {0, 0, 1};
  block.edge_weight = {1.0F, 1.0F, 1.0F};
  return block;
}

Matrix iota_features(std::size_t rows, std::size_t cols) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) out.at(r, c) = static_cast<float>(r + 1);
  }
  return out;
}

TEST(Linear, ShapeAndBias) {
  Rng rng(1);
  const Linear layer(4, 3, rng);
  const Tensor x = Tensor::constant(Matrix(5, 4, 0.0F));
  const Tensor y = layer.forward(x);
  EXPECT_EQ(y.rows(), 5U);
  EXPECT_EQ(y.cols(), 3U);
  // Zero input -> bias only, and bias initializes to zero.
  for (const float v : y.value().data()) EXPECT_FLOAT_EQ(v, 0.0F);
}

TEST(Linear, RegistersWeightAndBias) {
  Rng rng(2);
  Linear layer(4, 3, rng);
  ASSERT_EQ(layer.parameters().size(), 2U);
  EXPECT_EQ(layer.parameters()[0].value().size() + layer.parameters()[1].value().size(),
            4U * 3U + 3U);
}

TEST(Mlp, DepthAndOutputShape) {
  Rng rng(3);
  Mlp mlp({8, 16, 16, 1}, rng);
  EXPECT_EQ(mlp.parameters().size(), 6U);  // 3 layers x (W, b)
  const Tensor y = mlp.forward(Tensor::constant(Matrix(7, 8, 0.1F)));
  EXPECT_EQ(y.rows(), 7U);
  EXPECT_EQ(y.cols(), 1U);
}

TEST(Mlp, TooFewDimsThrows) {
  Rng rng(4);
  EXPECT_THROW(Mlp({8}, rng), std::invalid_argument);
}

TEST(GcnConv, MeanWithSelfHandComputed) {
  Rng rng(5);
  GcnConv layer(1, 1, rng);
  // Overwrite parameters for a deterministic check: W = [[1]], b = [0].
  layer.parameters()[0].mutable_value().at(0, 0) = 1.0F;
  layer.parameters()[1].mutable_value().at(0, 0) = 0.0F;

  const Block block = tiny_block();
  const Tensor x = Tensor::constant(iota_features(4, 1));  // rows: 1,2,3,4
  const Tensor y = layer.forward(block, x);
  ASSERT_EQ(y.rows(), 2U);
  // dst 0: (self=1 + src2=3 + src3=4) / (1 + 2) = 8/3.
  EXPECT_NEAR(y.value().at(0, 0), 8.0F / 3.0F, 1e-5);
  // dst 1: (self=2 + src3=4) / (1 + 1) = 3.
  EXPECT_NEAR(y.value().at(1, 0), 3.0F, 1e-5);
}

TEST(GcnConv, RespectsEdgeWeights) {
  Rng rng(6);
  GcnConv layer(1, 1, rng);
  layer.parameters()[0].mutable_value().at(0, 0) = 1.0F;
  layer.parameters()[1].mutable_value().at(0, 0) = 0.0F;
  Block block = tiny_block();
  block.edge_weight = {2.0F, 0.0F, 1.0F};  // zero weight disables the 3->0 edge
  const Tensor x = Tensor::constant(iota_features(4, 1));
  const Tensor y = layer.forward(block, x);
  // dst 0: (1 + 2*3 + 0*4) / (1 + 2 + 0) = 7/3.
  EXPECT_NEAR(y.value().at(0, 0), 7.0F / 3.0F, 1e-5);
}

TEST(SageConv, MeanAggregatorHandComputed) {
  Rng rng(7);
  SageConv layer(1, 1, rng);
  // W_self = 1, W_neigh = 1, b = 0.
  layer.parameters()[0].mutable_value().at(0, 0) = 1.0F;
  layer.parameters()[1].mutable_value().at(0, 0) = 1.0F;
  layer.parameters()[2].mutable_value().at(0, 0) = 0.0F;
  const Block block = tiny_block();
  const Tensor x = Tensor::constant(iota_features(4, 1));
  const Tensor y = layer.forward(block, x);
  // dst 0: self 1 + mean(3, 4) = 4.5; dst 1: self 2 + mean(4) = 6.
  EXPECT_NEAR(y.value().at(0, 0), 4.5F, 1e-5);
  EXPECT_NEAR(y.value().at(1, 0), 6.0F, 1e-5);
}

TEST(SageConv, IsolatedDestinationKeepsSelfTermOnly) {
  Rng rng(8);
  SageConv layer(1, 1, rng);
  layer.parameters()[0].mutable_value().at(0, 0) = 1.0F;
  layer.parameters()[1].mutable_value().at(0, 0) = 1.0F;
  layer.parameters()[2].mutable_value().at(0, 0) = 0.0F;
  Block block;
  block.src_nodes = {0};
  block.dst_count = 1;  // no edges at all
  const Tensor x = Tensor::constant(iota_features(1, 1));
  const Tensor y = layer.forward(block, x);
  EXPECT_NEAR(y.value().at(0, 0), 1.0F, 1e-5);
}

class AttentionLayerTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(AttentionLayerTest, OutputIsConvexCombinationUnderIdentityWeight) {
  // With W = I (1-dim) the output of attention aggregation is a convex
  // combination of {self, neighbors}; it must lie within their value range.
  Rng rng(9);
  const auto layer = make_gnn_layer(GetParam(), 1, 1, rng);
  const Block block = tiny_block();
  const Tensor x = Tensor::constant(iota_features(4, 1));
  const Tensor y = layer->forward(block, x);
  ASSERT_EQ(y.rows(), 2U);
  // All inputs are in [1, 4]; attention output (pre-bias, with small random
  // bias zeroed below) must stay within a slightly padded hull after the
  // linear map. Set W = 1, bias = 0 explicitly for GAT (params 0=W,3=b) and
  // GATv2 (0=W_src, 1=W_dst, 3=b).
  const auto kind = GetParam();
  Rng rng2(9);
  auto fresh = make_gnn_layer(kind, 1, 1, rng2);
  auto& params = fresh->parameters();
  params[0].mutable_value().at(0, 0) = 1.0F;
  if (kind == GnnKind::kGatv2) params[1].mutable_value().at(0, 0) = 1.0F;
  params.back().mutable_value().at(0, 0) = 0.0F;  // bias registered last
  const Tensor z = fresh->forward(block, x);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_GE(z.value().at(d, 0), 1.0F - 1e-4);
    EXPECT_LE(z.value().at(d, 0), 4.0F + 1e-4);
  }
}

TEST_P(AttentionLayerTest, GradientsReachAllParameters) {
  Rng rng(10);
  const auto layer = make_gnn_layer(GetParam(), 3, 4, rng);
  const Block block = tiny_block();
  Rng feat_rng(11);
  const Tensor x = Tensor::constant(tensor::gaussian(4, 3, 0.0, 1.0, feat_rng));
  Tensor loss = mean_all(layer->forward(block, x));
  loss.backward();
  for (const auto& p : layer->parameters()) {
    EXPECT_FALSE(p.grad().empty()) << "parameter missed by backward";
  }
}

INSTANTIATE_TEST_SUITE_P(GatKinds, AttentionLayerTest,
                         ::testing::Values(GnnKind::kGat, GnnKind::kGatv2));

// The attention layers' parameter order is the checkpoint layout.
void expect_shapes(const GnnLayer& layer,
                   const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
  ASSERT_EQ(layer.parameters().size(), shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(layer.parameters()[i].value().rows(), shapes[i].first) << "parameter " << i;
    EXPECT_EQ(layer.parameters()[i].value().cols(), shapes[i].second) << "parameter " << i;
  }
}

TEST(AttentionLayout, GatRegistersWeightAttentionAndBias) {
  Rng rng(13);
  const auto layer = make_gnn_layer(GnnKind::kGat, 4, 8, rng);
  expect_shapes(*layer, {{4, 8}, {8, 1}, {8, 1}, {1, 8}});  // W, a_src, a_dst, bias
}

TEST(AttentionLayout, Gatv2RegistersBothWeightsAttentionAndBias) {
  Rng rng(13);
  const auto layer = make_gnn_layer(GnnKind::kGatv2, 4, 8, rng);
  expect_shapes(*layer, {{4, 8}, {4, 8}, {8, 1}, {1, 8}});  // W_src, W_dst, a, bias
}

TEST(Predictors, DotPredictorHandComputed) {
  const DotPredictor predictor;
  Matrix emb(3, 2);
  emb.at(0, 0) = 1.0F;
  emb.at(0, 1) = 2.0F;
  emb.at(1, 0) = 3.0F;
  emb.at(1, 1) = -1.0F;
  emb.at(2, 0) = 0.5F;
  emb.at(2, 1) = 0.5F;
  const Tensor embeddings = Tensor::constant(std::move(emb));
  const std::vector<PairIndex> pairs{{0, 1}, {1, 2}};
  const Tensor scores = predictor.score(embeddings, pairs);
  EXPECT_FLOAT_EQ(scores.value().at(0, 0), 1.0F * 3 + 2 * -1);
  EXPECT_FLOAT_EQ(scores.value().at(1, 0), 3 * 0.5F - 1 * 0.5F);
}

TEST(Predictors, MlpPredictorShapeAndGradients) {
  Rng rng(12);
  MlpPredictor predictor(8, 16, 3, rng);
  Rng feat_rng(13);
  const Tensor embeddings = Tensor::constant(tensor::gaussian(5, 8, 0.0, 1.0, feat_rng));
  const std::vector<PairIndex> pairs{{0, 1}, {2, 3}, {4, 0}};
  Tensor scores = predictor.score(embeddings, pairs);
  EXPECT_EQ(scores.rows(), 3U);
  EXPECT_EQ(scores.cols(), 1U);
  mean_all(scores).backward();
  for (const auto& p : predictor.parameters()) EXPECT_FALSE(p.grad().empty());
}

TEST(Predictors, FactoryAndNames) {
  EXPECT_EQ(to_string(PredictorKind::kDot), "dot");
  EXPECT_EQ(to_string(PredictorKind::kMlp), "mlp");
}

TEST(Model, SameSeedGivesIdenticalReplicas) {
  ModelConfig config;
  config.in_dim = 6;
  config.hidden_dim = 8;
  const LinkPredictionModel a(config, 42);
  const LinkPredictionModel b(config, 42);
  ASSERT_EQ(a.parameters().size(), b.parameters().size());
  for (std::size_t i = 0; i < a.parameters().size(); ++i) {
    EXPECT_FLOAT_EQ(
        tensor::max_abs_diff(a.parameters()[i].value(), b.parameters()[i].value()), 0.0F);
  }
}

TEST(Model, DifferentSeedsDiffer) {
  ModelConfig config;
  config.in_dim = 6;
  config.hidden_dim = 8;
  const LinkPredictionModel a(config, 1);
  const LinkPredictionModel b(config, 2);
  EXPECT_GT(tensor::max_abs_diff(a.parameters()[0].value(), b.parameters()[0].value()), 0.0F);
}

TEST(Model, DefaultFanoutsMatchPaper) {
  ModelConfig config;
  config.in_dim = 4;
  config.gnn = GnnKind::kSage;
  const LinkPredictionModel sage(config, 1);
  EXPECT_EQ(sage.default_fanouts(), (std::vector<std::uint32_t>{5, 10, 25}));
  config.gnn = GnnKind::kGcn;
  const LinkPredictionModel gcn(config, 1);
  EXPECT_EQ(gcn.default_fanouts(), (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(Model, EncodeScoreEndToEnd) {
  ModelConfig config;
  config.in_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  const LinkPredictionModel model(config, 3);

  // Two stacked blocks: bottom expands 3 -> 3 (identity-ish), top 2 dsts.
  sampling::ComputationGraph cg;
  Block bottom;
  bottom.src_nodes = {0, 1, 2};
  bottom.dst_count = 3;
  bottom.edge_src = {1, 2, 0};
  bottom.edge_dst = {0, 1, 2};
  bottom.edge_weight = {1, 1, 1};
  Block top;
  top.src_nodes = {0, 1, 2};
  top.dst_count = 2;
  top.edge_src = {2, 2};
  top.edge_dst = {0, 1};
  top.edge_weight = {1, 1};
  cg.blocks = {bottom, top};

  Rng rng(14);
  const auto embeddings = model.encode(cg, tensor::gaussian(3, 4, 0.0, 1.0, rng));
  EXPECT_EQ(embeddings.rows(), 2U);
  EXPECT_EQ(embeddings.cols(), 8U);
  const std::vector<PairIndex> pairs{{0, 1}};
  const auto scores = model.score(embeddings, pairs);
  EXPECT_EQ(scores.rows(), 1U);
}

TEST(Model, MismatchedDepthThrows) {
  ModelConfig config;
  config.in_dim = 4;
  config.num_layers = 3;
  const LinkPredictionModel model(config, 3);
  sampling::ComputationGraph cg;
  cg.blocks.resize(2);  // too shallow
  cg.blocks[0].src_nodes = {0};
  cg.blocks[0].dst_count = 1;
  cg.blocks[1].src_nodes = {0};
  cg.blocks[1].dst_count = 1;
  EXPECT_THROW((void)model.encode(cg, Matrix(1, 4)), std::invalid_argument);
}

TEST(Model, EncodeRejectsFeatureWidthOtherThanInDim) {
  // The first layer's weights have in_dim rows; a wider or narrower feature
  // matrix would run its GEMMs past them or over a slice of them.
  ModelConfig config;
  config.in_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 1;
  const LinkPredictionModel model(config, 3);
  sampling::ComputationGraph cg;
  cg.blocks = {tiny_block()};
  for (const std::size_t cols : {3U, 5U}) {
    try {
      (void)model.encode(cg, Matrix(4, cols));
      ADD_FAILURE() << cols << " feature columns were accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("in_dim (4)"), std::string::npos) << message;
      EXPECT_NE(message.find("(" + std::to_string(cols) + ")"), std::string::npos) << message;
    }
  }
  EXPECT_EQ(model.encode(cg, Matrix(4, 4)).rows(), 2U);
}

TEST(Model, CopyParameters) {
  ModelConfig config;
  config.in_dim = 5;
  config.hidden_dim = 4;
  const LinkPredictionModel source(config, 10);
  LinkPredictionModel destination(config, 20);
  EXPECT_GT(tensor::max_abs_diff(source.parameters()[0].value(),
                                 destination.parameters()[0].value()),
            0.0F);
  copy_parameters(source, destination);
  for (std::size_t i = 0; i < source.parameters().size(); ++i) {
    EXPECT_FLOAT_EQ(tensor::max_abs_diff(source.parameters()[i].value(),
                                         destination.parameters()[i].value()),
                    0.0F);
  }
}

TEST(Optimizers, SgdDescendsQuadratic) {
  // Minimize f(w) = 0.5 ||w||^2; gradient = w.
  class Quadratic : public Module {
   public:
    Quadratic() { w_ = register_parameter(Matrix(2, 2, 3.0F)); }
    Tensor w_;
  };
  Quadratic model;
  Sgd sgd(model, 0.5F);  // grad = 2w/n = w/2, so each step scales w by 0.75
  for (int step = 0; step < 50; ++step) {
    model.zero_grad();
    Tensor loss = mean_all(mul(model.w_, model.w_));
    loss.backward();
    sgd.step();
  }
  EXPECT_LT(model.w_.value().squared_norm(), 0.1);
}

TEST(Optimizers, AdamDescendsQuadraticFasterThanSgdOnIllScaled) {
  class Quadratic : public Module {
   public:
    Quadratic() { w_ = register_parameter(Matrix(1, 2, 2.0F)); }
    Tensor w_;
  };
  auto run = [](Optimizer& optimizer, Quadratic& model) {
    // f = mean(c * w * w) with c = [100, 0.01] (ill-conditioned).
    Matrix scale_values(1, 2);
    scale_values.at(0, 0) = 100.0F;
    scale_values.at(0, 1) = 0.01F;
    const Tensor c = Tensor::constant(scale_values);
    for (int step = 0; step < 200; ++step) {
      optimizer.zero_grad();
      Tensor loss = mean_all(mul(mul(model.w_, model.w_), c));
      loss.backward();
      optimizer.step();
    }
    return std::abs(model.w_.value().at(0, 0));
  };
  Quadratic adam_model;
  Adam adam(adam_model, 0.05F);
  const float adam_w0 = run(adam, adam_model);
  EXPECT_LT(adam_w0, 0.05F);
}

TEST(Optimizers, ZeroGradClearsAll) {
  class P : public Module {
   public:
    P() { w_ = register_parameter(Matrix(1, 1, 1.0F)); }
    Tensor w_;
  };
  P model;
  mean_all(model.w_).backward();
  Adam adam(model, 0.1F);
  adam.zero_grad();
  EXPECT_FLOAT_EQ(model.w_.grad().at(0, 0), 0.0F);
}

}  // namespace
}  // namespace splpg::nn
