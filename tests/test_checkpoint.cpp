// Tests for model checkpointing (parameters-only and full train state with
// optimizer moments) and the network cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "nn/optimizer.hpp"

#include "dist/cost_model.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "tensor/matrix.hpp"

namespace splpg {
namespace {

nn::ModelConfig small_config() {
  nn::ModelConfig config;
  config.in_dim = 6;
  config.hidden_dim = 8;
  config.num_layers = 2;
  return config;
}

TEST(Checkpoint, RoundTripRestoresAllParameters) {
  nn::LinkPredictionModel source(small_config(), 1);
  nn::LinkPredictionModel destination(small_config(), 2);  // different init
  ASSERT_GT(tensor::max_abs_diff(source.parameters()[0].value(),
                                 destination.parameters()[0].value()),
            0.0F);
  std::stringstream stream;
  nn::save_parameters(stream, source);
  nn::load_parameters(stream, destination);
  for (std::size_t i = 0; i < source.parameters().size(); ++i) {
    EXPECT_FLOAT_EQ(tensor::max_abs_diff(source.parameters()[i].value(),
                                         destination.parameters()[i].value()),
                    0.0F)
        << "parameter " << i;
  }
}

TEST(Checkpoint, BadMagicThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  std::stringstream stream("garbage data here, definitely not a checkpoint");
  EXPECT_THROW(nn::load_parameters(stream, model), std::runtime_error);
}

TEST(Checkpoint, ArityMismatchThrows) {
  nn::LinkPredictionModel deep(small_config(), 1);
  auto shallow_config = small_config();
  shallow_config.num_layers = 1;
  nn::LinkPredictionModel shallow(shallow_config, 1);
  std::stringstream stream;
  nn::save_parameters(stream, deep);
  EXPECT_THROW(nn::load_parameters(stream, shallow), std::invalid_argument);
}

TEST(Checkpoint, ShapeMismatchThrows) {
  nn::LinkPredictionModel source(small_config(), 1);
  auto wide_config = small_config();
  wide_config.hidden_dim = 16;
  nn::LinkPredictionModel wide(wide_config, 1);
  std::stringstream stream;
  nn::save_parameters(stream, source);
  EXPECT_THROW(nn::load_parameters(stream, wide), std::invalid_argument);
}

TEST(Checkpoint, TruncatedStreamThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  std::stringstream stream;
  nn::save_parameters(stream, model);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  nn::LinkPredictionModel destination(small_config(), 2);
  EXPECT_THROW(nn::load_parameters(truncated, destination), std::exception);
}

// ---- file-based robustness (the trainer's crash-recovery path) ----

class CheckpointFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test-name directory: ctest runs each case as its own process, so a
    // shared path races one test's TearDown against another's writes.
    dir_ = std::filesystem::temp_directory_path() /
           ("splpg_checkpoint_file_" + std::string(::testing::UnitTest::GetInstance()
                                                       ->current_test_info()
                                                       ->name()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "model.bin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(CheckpointFileTest, FileRoundTripRestoresAllParameters) {
  nn::LinkPredictionModel source(small_config(), 1);
  nn::LinkPredictionModel destination(small_config(), 2);
  nn::save_parameters_file(path_, source);
  nn::load_parameters_file(path_, destination);
  for (std::size_t i = 0; i < source.parameters().size(); ++i) {
    EXPECT_FLOAT_EQ(tensor::max_abs_diff(source.parameters()[i].value(),
                                         destination.parameters()[i].value()),
                    0.0F)
        << "parameter " << i;
  }
}

TEST_F(CheckpointFileTest, MissingFileThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  EXPECT_THROW(nn::load_parameters_file((dir_ / "absent.bin").string(), model),
               std::runtime_error);
}

TEST_F(CheckpointFileTest, TruncatedFileThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  nn::save_parameters_file(path_, model);
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size / 2);
  nn::LinkPredictionModel destination(small_config(), 2);
  EXPECT_THROW(nn::load_parameters_file(path_, destination), std::exception);
}

TEST_F(CheckpointFileTest, BadMagicFileThrows) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not a checkpoint at all";
  }
  nn::LinkPredictionModel model(small_config(), 1);
  EXPECT_THROW(nn::load_parameters_file(path_, model), std::runtime_error);
}

TEST_F(CheckpointFileTest, ShapeMismatchFileThrows) {
  nn::LinkPredictionModel source(small_config(), 1);
  nn::save_parameters_file(path_, source);
  auto wide_config = small_config();
  wide_config.hidden_dim = 16;
  nn::LinkPredictionModel wide(wide_config, 1);
  EXPECT_THROW(nn::load_parameters_file(path_, wide), std::invalid_argument);
}

// ---- full train state: parameters + Adam moments (the exact-resume contract) ----

/// Deterministic synthetic gradients, a pure function of (parameter, element,
/// step) — lets us replay the exact same "training" on two model instances.
void apply_fake_gradients(nn::Module& module, std::uint64_t step) {
  auto& params = module.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto& grad = params[i].mutable_grad();
    if (grad.empty()) grad.resize(params[i].rows(), params[i].cols());
    auto data = grad.data();
    for (std::size_t j = 0; j < data.size(); ++j) {
      data[j] = 0.01F * static_cast<float>((i + 1) * (j % 7 + 1)) -
                0.003F * static_cast<float>(step % 5 + 1);
    }
  }
}

void expect_models_bit_identical(const nn::Module& a, const nn::Module& b) {
  ASSERT_EQ(a.parameters().size(), b.parameters().size());
  for (std::size_t i = 0; i < a.parameters().size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(a.parameters()[i].value(), b.parameters()[i].value()),
              0.0F)
        << "parameter " << i;
  }
}

TEST(TrainState, ResumedAdamStepsAreBitIdentical) {
  nn::LinkPredictionModel reference(small_config(), 1);
  nn::Adam reference_opt(reference);
  for (std::uint64_t step = 1; step <= 3; ++step) {
    apply_fake_gradients(reference, step);
    reference_opt.step();
  }
  std::stringstream state;
  nn::save_train_state(state, reference, reference_opt, /*epoch=*/7);
  std::stringstream params_only;
  nn::save_parameters(params_only, reference);
  for (std::uint64_t step = 4; step <= 6; ++step) {
    apply_fake_gradients(reference, step);
    reference_opt.step();
  }

  // Full-state resume: differently initialized model + fresh optimizer, then
  // load_train_state. The next steps must be bit-identical to never pausing.
  nn::LinkPredictionModel resumed(small_config(), 2);
  nn::Adam resumed_opt(resumed);
  EXPECT_EQ(nn::load_train_state(state, resumed, resumed_opt), 7U);
  for (std::uint64_t step = 4; step <= 6; ++step) {
    apply_fake_gradients(resumed, step);
    resumed_opt.step();
  }
  expect_models_bit_identical(reference, resumed);

  // Restoring parameters but NOT moments (the old checkpoint format) diverges
  // under the same gradient replay — the moments are load-bearing.
  nn::LinkPredictionModel stale(small_config(), 3);
  nn::Adam stale_opt(stale);
  nn::load_parameters(params_only, stale);
  for (std::uint64_t step = 4; step <= 6; ++step) {
    apply_fake_gradients(stale, step);
    stale_opt.step();
  }
  float divergence = 0.0F;
  for (std::size_t i = 0; i < reference.parameters().size(); ++i) {
    divergence = std::max(divergence, tensor::max_abs_diff(reference.parameters()[i].value(),
                                                           stale.parameters()[i].value()));
  }
  EXPECT_GT(divergence, 0.0F);
}

TEST(TrainState, SgdHasNoStateAndStillRoundTrips) {
  nn::LinkPredictionModel source(small_config(), 1);
  nn::Sgd source_opt(source, 0.1F);
  std::stringstream state;
  nn::save_train_state(state, source, source_opt, /*epoch=*/2);
  nn::LinkPredictionModel destination(small_config(), 2);
  nn::Sgd destination_opt(destination, 0.1F);
  EXPECT_EQ(nn::load_train_state(state, destination, destination_opt), 2U);
  expect_models_bit_identical(source, destination);
}

TEST(TrainState, BadMagicThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  nn::Adam opt(model);
  std::stringstream stream("garbage bytes, definitely not a train state");
  EXPECT_THROW(nn::load_train_state(stream, model, opt), std::runtime_error);
}

TEST(TrainState, TruncatedThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  nn::Adam opt(model);
  std::stringstream stream;
  nn::save_train_state(stream, model, opt, 1);
  const std::string full = stream.str();
  std::stringstream truncated(full.substr(0, full.size() - 16));
  EXPECT_THROW(nn::load_train_state(truncated, model, opt), std::exception);
}

TEST(TrainState, ShapeMismatchThrows) {
  nn::LinkPredictionModel source(small_config(), 1);
  nn::Adam source_opt(source);
  std::stringstream stream;
  nn::save_train_state(stream, source, source_opt, 1);
  auto wide_config = small_config();
  wide_config.hidden_dim = 16;
  nn::LinkPredictionModel wide(wide_config, 1);
  nn::Adam wide_opt(wide);
  EXPECT_THROW(nn::load_train_state(stream, wide, wide_opt), std::invalid_argument);
}

TEST(TrainState, AdamMomentCountMismatchThrows) {
  nn::LinkPredictionModel deep(small_config(), 1);
  nn::Adam deep_opt(deep);
  std::stringstream stream;
  deep_opt.save_state(stream);
  auto shallow_config = small_config();
  shallow_config.num_layers = 1;
  nn::LinkPredictionModel shallow(shallow_config, 1);
  nn::Adam shallow_opt(shallow);
  EXPECT_THROW(shallow_opt.load_state(stream), std::invalid_argument);
}

TEST_F(CheckpointFileTest, TrainStateFileRoundTripRestoresEpochAndSteps) {
  nn::LinkPredictionModel source(small_config(), 1);
  nn::Adam source_opt(source);
  for (std::uint64_t step = 1; step <= 2; ++step) {
    apply_fake_gradients(source, step);
    source_opt.step();
  }
  nn::save_train_state_file(path_, source, source_opt, /*epoch=*/4);

  nn::LinkPredictionModel destination(small_config(), 2);
  nn::Adam destination_opt(destination);
  EXPECT_EQ(nn::load_train_state_file(path_, destination, destination_opt), 4U);
  apply_fake_gradients(source, 3);
  source_opt.step();
  apply_fake_gradients(destination, 3);
  destination_opt.step();
  expect_models_bit_identical(source, destination);
}

TEST_F(CheckpointFileTest, TrainStateMissingFileThrows) {
  nn::LinkPredictionModel model(small_config(), 1);
  nn::Adam opt(model);
  EXPECT_THROW(nn::load_train_state_file((dir_ / "absent.bin").string(), model, opt),
               std::runtime_error);
}

TEST(CostModel, PureBandwidthMath) {
  dist::CommStats stats;
  stats.structure_bytes = 3'000'000'000ULL;  // 3 GB
  dist::LinkProfile link{"test", 1e9, 0.0};
  const auto cost = dist::estimate_cost(stats, link);
  EXPECT_NEAR(cost.transfer_seconds, 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(cost.latency_seconds, 0.0);
}

TEST(CostModel, LatencyScalesWithFetches) {
  dist::CommStats stats;
  stats.structure_fetches = 1000;
  stats.feature_fetches = 500;
  dist::LinkProfile link{"test", 1e9, 1e-4};
  const auto cost = dist::estimate_cost(stats, link);
  EXPECT_NEAR(cost.latency_seconds, 0.15, 1e-9);
}

TEST(CostModel, SlowerLinksCostMore) {
  dist::CommStats stats;
  stats.feature_bytes = 1'000'000'000ULL;
  stats.feature_fetches = 10'000;
  const auto fast = dist::estimate_cost(stats, dist::pcie_gen4_link());
  const auto medium = dist::estimate_cost(stats, dist::datacenter_25g());
  const auto slow = dist::estimate_cost(stats, dist::commodity_1g());
  EXPECT_LT(fast.total_seconds(), medium.total_seconds());
  EXPECT_LT(medium.total_seconds(), slow.total_seconds());
}

}  // namespace
}  // namespace splpg
