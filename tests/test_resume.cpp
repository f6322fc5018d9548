// Trainer-level exact-resume regression tests: training interrupted at a
// checkpoint and resumed via TrainConfig::resume_from must be bit-identical
// to a run that never stopped. This holds because checkpoints carry the full
// train state (parameters + Adam moments + epoch) and per-epoch worker
// randomness is a pure function of (seed, worker, epoch).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/matrix.hpp"

namespace splpg {
namespace {

namespace fs = std::filesystem;
using core::Method;
using core::TrainConfig;
using core::TrainResult;

struct Problem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

const Problem& problem() {
  static const Problem instance = [] {
    Problem p;
    p.dataset = data::make_dataset("cora", 0.12, 3);
    util::Rng rng = util::Rng(3).split("split");
    p.split = sampling::split_edges(p.dataset.graph, sampling::SplitOptions{}, rng);
    return p;
  }();
  return instance;
}

TrainConfig base_config(Method method, std::uint32_t epochs) {
  TrainConfig config;
  config.method = method;
  config.model.hidden_dim = 32;
  config.model.num_layers = 2;
  config.epochs = epochs;
  config.batch_size = 128;
  config.num_partitions = 4;
  config.max_batches_per_epoch = 4;
  config.seed = 11;
  // Replica-identical optimizer state — the configuration under which resume
  // guarantees bit-identity (see TrainConfig::resume_from).
  config.sync = dist::SyncMode::kGradientAveraging;
  return config;
}

TrainResult run(const TrainConfig& config) {
  return core::train_link_prediction(problem().split, problem().dataset.features, config);
}

void expect_models_bit_identical(const TrainResult& a, const TrainResult& b) {
  ASSERT_NE(a.model, nullptr);
  ASSERT_NE(b.model, nullptr);
  const auto& want = a.model->parameters();
  const auto& got = b.model->parameters();
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(tensor::max_abs_diff(want[i].value(), got[i].value()), 0.0F)
        << "parameter " << i;
  }
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("splpg_resume_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string state_path(std::uint32_t epoch) const {
    return (dir_ / ("state_epoch_" + std::to_string(epoch) + ".bin")).string();
  }

  fs::path dir_;
};

TEST_F(ResumeTest, SplpgResumeIsBitIdenticalToUninterruptedRun) {
  // Reference: 4 epochs straight through.
  const TrainResult reference = run(base_config(Method::kSplpg, 4));

  // Interrupted: stop after epoch 2 (checkpointing to disk), then resume the
  // remaining 2 epochs from the state file.
  auto first_half = base_config(Method::kSplpg, 2);
  first_half.checkpoint_every = 1;
  first_half.checkpoint_dir = dir_.string();
  const TrainResult partial = run(first_half);
  ASSERT_TRUE(fs::exists(state_path(2)));

  auto second_half = base_config(Method::kSplpg, 4);
  second_half.resume_from = state_path(2);
  const TrainResult resumed = run(second_half);

  // The resumed run's history covers epochs 3..4 and must match the
  // reference's records for those epochs bit-for-bit.
  ASSERT_EQ(reference.history.size(), 4U);
  ASSERT_EQ(resumed.history.size(), 2U);
  for (const auto& record : resumed.history) {
    const auto& ref = reference.history.at(record.epoch - 1);
    ASSERT_EQ(ref.epoch, record.epoch);
    EXPECT_DOUBLE_EQ(ref.mean_loss, record.mean_loss) << "epoch " << record.epoch;
    EXPECT_DOUBLE_EQ(ref.comm_gigabytes, record.comm_gigabytes) << "epoch " << record.epoch;
  }
  EXPECT_DOUBLE_EQ(reference.test_hits, resumed.test_hits);
  EXPECT_DOUBLE_EQ(reference.test_auc, resumed.test_auc);
  expect_models_bit_identical(reference, resumed);
  // Sanity: the half-run really did stop early (different model state).
  ASSERT_EQ(partial.history.size(), 2U);
}

TEST_F(ResumeTest, CentralizedResumeIsBitIdenticalToUninterruptedRun) {
  const TrainResult reference = run(base_config(Method::kCentralized, 3));

  auto first_part = base_config(Method::kCentralized, 1);
  first_part.checkpoint_every = 1;
  first_part.checkpoint_dir = dir_.string();
  (void)run(first_part);

  auto rest = base_config(Method::kCentralized, 3);
  rest.resume_from = state_path(1);
  const TrainResult resumed = run(rest);

  EXPECT_DOUBLE_EQ(reference.test_hits, resumed.test_hits);
  EXPECT_DOUBLE_EQ(reference.test_auc, resumed.test_auc);
  expect_models_bit_identical(reference, resumed);
}

TEST_F(ResumeTest, CheckpointDirWritesBothModelAndStateFiles) {
  auto config = base_config(Method::kSplpg, 2);
  config.checkpoint_every = 1;
  config.checkpoint_dir = dir_.string();
  (void)run(config);
  // Epoch 0 is the pre-training snapshot; 1 and 2 are epoch boundaries.
  for (std::uint32_t epoch = 0; epoch <= 2; ++epoch) {
    EXPECT_TRUE(fs::exists(dir_ / ("model_epoch_" + std::to_string(epoch) + ".bin")))
        << "epoch " << epoch;
    EXPECT_TRUE(fs::exists(state_path(epoch))) << "epoch " << epoch;
  }
}

TEST_F(ResumeTest, EdgelessWorkerResumeIsBitIdenticalToUninterruptedRun) {
  // PSGD-PA trains on intra-partition edges only, and at p = 16 one worker
  // of this graph owns none. It must add nothing to any all-reduce: had it
  // kept the previous round's averaged gradients, every all-reduce after a
  // fresh start would count them again, while a resumed run (fresh, empty
  // gradients) would not.
  const data::Dataset dataset = data::make_dataset("cora", 0.12, 1);
  util::Rng rng = util::Rng(1).split("split");
  const sampling::LinkSplit split =
      sampling::split_edges(dataset.graph, sampling::SplitOptions{}, rng);
  TrainConfig config;
  config.method = Method::kPsgdPa;
  config.num_partitions = 16;
  config.epochs = 2;
  config.batch_size = 64;
  config.model.hidden_dim = 32;
  config.max_batches_per_epoch = 4;
  config.seed = 1;
  config.sync = dist::SyncMode::kGradientAveraging;
  const TrainResult reference = core::train_link_prediction(split, dataset.features, config);
  std::uint32_t edgeless = 0;
  for (const auto& comm : reference.per_worker_comm) edgeless += comm.batches == 0 ? 1 : 0;
  ASSERT_EQ(edgeless, 1U);

  auto first_half = config;
  first_half.epochs = 1;
  first_half.checkpoint_dir = dir_.string();
  (void)core::train_link_prediction(split, dataset.features, first_half);
  auto second_half = config;
  second_half.resume_from = state_path(1);
  const TrainResult resumed = core::train_link_prediction(split, dataset.features, second_half);

  ASSERT_EQ(resumed.history.size(), 1U);
  EXPECT_EQ(resumed.history[0].mean_loss, reference.history[1].mean_loss);
  EXPECT_EQ(resumed.test_auc, reference.test_auc);
  expect_models_bit_identical(reference, resumed);
}

TEST_F(ResumeTest, ResumePastConfiguredEpochsThrows) {
  auto config = base_config(Method::kSplpg, 2);
  config.checkpoint_every = 1;
  config.checkpoint_dir = dir_.string();
  (void)run(config);

  auto bad = base_config(Method::kSplpg, 2);
  bad.resume_from = state_path(2);  // checkpoint already at the final epoch
  EXPECT_THROW((void)run(bad), std::invalid_argument);
}

TEST_F(ResumeTest, ResumeFromMissingFileThrows) {
  auto config = base_config(Method::kSplpg, 2);
  config.resume_from = state_path(9);
  EXPECT_THROW((void)run(config), std::runtime_error);
}

}  // namespace
}  // namespace splpg
