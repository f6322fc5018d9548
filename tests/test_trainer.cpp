// Integration tests for core::train_link_prediction: the full distributed
// pipeline across methods, sync modes, and models, plus the paper's
// qualitative claims at miniature scale.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "nn/checkpoint.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/vec.hpp"

namespace splpg::core {
namespace {

struct Problem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

/// Small shared problem instance (built once; tests are read-only users).
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

TrainConfig base_config(Method method, std::uint32_t epochs = 3) {
  TrainConfig config;
  config.method = method;
  config.model.hidden_dim = 32;
  config.model.num_layers = 2;
  config.epochs = epochs;
  config.batch_size = 128;
  config.num_partitions = 4;
  config.max_batches_per_epoch = 4;
  config.seed = 11;
  return config;
}

TEST(Trainer, CentralizedLearnsAboveChance) {
  auto config = base_config(Method::kCentralized, 6);
  config.max_batches_per_epoch = 8;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_GT(result.test_auc, 0.65);  // far above the 0.5 chance level
  EXPECT_GT(result.test_hits, 0.0);
  EXPECT_EQ(result.comm.total_bytes(), 0U);  // single worker: no transfers
  EXPECT_EQ(result.history.size(), 6U);
}

TEST(Trainer, DeterministicAcrossRuns) {
  const auto config = base_config(Method::kSplpg);
  const TrainResult a = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  const TrainResult b = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.history[e].mean_loss, b.history[e].mean_loss);
    EXPECT_DOUBLE_EQ(a.history[e].comm_gigabytes, b.history[e].comm_gigabytes);
  }
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_EQ(a.comm.total_bytes(), b.comm.total_bytes());
}

TEST(Trainer, VanillaBaselinesTransferNothing) {
  for (const Method method : {Method::kPsgdPa, Method::kRandomTma, Method::kSuperTma,
                              Method::kSplpgMinus, Method::kSplpgMinusMinus}) {
    const TrainResult result = train_link_prediction(
        problem().split, problem().dataset.features, base_config(method, 2));
    EXPECT_EQ(result.comm.total_bytes(), 0U) << to_string(method);
  }
}

TEST(Trainer, SplpgTransfersLessThanSplpgPlus) {
  const TrainResult splpg = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 2));
  const TrainResult plus = train_link_prediction(problem().split, problem().dataset.features,
                                                 base_config(Method::kSplpgPlus, 2));
  EXPECT_GT(splpg.comm.total_bytes(), 0U);
  EXPECT_LT(static_cast<double>(splpg.comm.total_bytes()),
            0.8 * static_cast<double>(plus.comm.total_bytes()));
}

TEST(Trainer, RandomTmaPlusIsTheMostExpensive) {
  const TrainResult random_plus = train_link_prediction(
      problem().split, problem().dataset.features, base_config(Method::kRandomTmaPlus, 2));
  const TrainResult splpg = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 2));
  EXPECT_GT(random_plus.comm.total_bytes(), splpg.comm.total_bytes());
}

TEST(Trainer, SparsificationRunsOnlyForSplpg) {
  const TrainResult splpg = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 1));
  EXPECT_GT(splpg.sparsify_seconds, 0.0);
  const TrainResult plus = train_link_prediction(problem().split, problem().dataset.features,
                                                 base_config(Method::kSplpgPlus, 1));
  EXPECT_DOUBLE_EQ(plus.sparsify_seconds, 0.0);
}

TEST(Trainer, GradientAveragingKeepsReplicasInSyncAndRuns) {
  auto config = base_config(Method::kPsgdPaPlus, 2);
  config.sync = dist::SyncMode::kGradientAveraging;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.test_auc, 0.4);
}

TEST(Trainer, LlcgCorrectionStepRuns) {
  auto config = base_config(Method::kLlcg, 2);
  config.llcg_correction_batches = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_EQ(result.comm.total_bytes(), 0U);  // correction is server-side
}

TEST(Trainer, PerEpochEvaluationFillsHistory) {
  auto config = base_config(Method::kSplpg, 3);
  config.eval_every = 1;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  for (const auto& record : result.history) {
    EXPECT_GE(record.val_hits, 0.0);
    EXPECT_GE(record.test_hits, 0.0);
  }
}

TEST(Trainer, FinalOnlyEvaluationLeavesEarlyEpochsUnevaluated) {
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   base_config(Method::kSplpg, 3));
  EXPECT_LT(result.history.front().val_hits, 0.0);  // sentinel -1
  EXPECT_GE(result.history.back().val_hits, 0.0);
}

TEST(Trainer, PartitionStatsReported) {
  const TrainResult metis = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kPsgdPa, 1));
  const TrainResult random = train_link_prediction(problem().split, problem().dataset.features,
                                                   base_config(Method::kRandomTma, 1));
  EXPECT_LT(metis.partition_edge_cut, random.partition_edge_cut);
}

TEST(Trainer, EvalKOverrideRespected) {
  auto config = base_config(Method::kCentralized, 1);
  config.eval_k = 25;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.eval_k, 25U);
}

TEST(Trainer, GcnWithFullNeighborhoodFanouts) {
  auto config = base_config(Method::kSplpg, 2);
  config.model.gnn = nn::GnnKind::kGcn;
  config.model.num_layers = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.test_auc, 0.4);
}

TEST(Trainer, AttentionModelsTrain) {
  for (const auto gnn : {nn::GnnKind::kGat, nn::GnnKind::kGatv2}) {
    auto config = base_config(Method::kSplpg, 1);
    config.model.gnn = gnn;
    config.model.num_layers = 2;
    config.max_batches_per_epoch = 2;
    const TrainResult result = train_link_prediction(
        problem().split, problem().dataset.features, config);
    EXPECT_EQ(result.history.size(), 1U) << nn::to_string(gnn);
  }
}

TEST(Trainer, DotPredictorWorks) {
  auto config = base_config(Method::kCentralized, 2);
  config.model.predictor = nn::PredictorKind::kDot;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_GT(result.test_auc, 0.5);
}

TEST(Trainer, MoreSparsificationMeansLessCommunication) {
  auto sparse_config = base_config(Method::kSplpg, 2);
  sparse_config.alpha = 0.05;
  auto dense_config = base_config(Method::kSplpg, 2);
  dense_config.alpha = 0.5;
  const TrainResult sparse = train_link_prediction(problem().split, problem().dataset.features,
                                                   sparse_config);
  const TrainResult dense = train_link_prediction(problem().split, problem().dataset.features,
                                                  dense_config);
  EXPECT_LT(sparse.comm.total_bytes(), dense.comm.total_bytes());
}

// ---- fault tolerance ----

/// A lively but survivable cluster: 2% transient fetch failures with injected
/// latency, and worker 1 crashes at the start of epoch 2 (recovered from the
/// epoch-1 checkpoint at the epoch-2 boundary).
TrainConfig faulty_config() {
  auto config = base_config(Method::kSplpg, 4);
  config.faults.transient_fetch_failure_rate = 0.02;
  config.faults.fetch_latency_seconds = 1e-5;
  config.faults.crashes = {{1, 2, 0}};
  return config;
}

TEST(TrainerFaults, CrashedWorkerRecoversAndAccuracySurvives) {
  const TrainResult faulty = train_link_prediction(problem().split, problem().dataset.features,
                                                   faulty_config());
  // Training ran to completion through the crash...
  EXPECT_EQ(faulty.history.size(), 4U);
  EXPECT_EQ(faulty.fault.crashes, 1U);
  EXPECT_EQ(faulty.fault.recoveries, 1U);
  EXPECT_EQ(faulty.per_worker_fault[1].crashes, 1U);
  EXPECT_GT(faulty.fault.transient_failures, 0U);
  EXPECT_GT(faulty.fault.retries, 0U);
  EXPECT_GT(faulty.fault.injected_latency_seconds, 0.0);
  // ...and lands near the fault-free model's accuracy.
  const TrainResult clean = train_link_prediction(problem().split, problem().dataset.features,
                                                  base_config(Method::kSplpg, 4));
  EXPECT_NEAR(faulty.test_auc, clean.test_auc, 0.05);
  EXPECT_NEAR(faulty.test_hits, clean.test_hits, 0.15);
}

TEST(TrainerFaults, FaultStatsBitIdenticalAcrossRuns) {
  const auto config = faulty_config();
  const TrainResult a = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  const TrainResult b = train_link_prediction(problem().split, problem().dataset.features,
                                              config);
  EXPECT_EQ(a.fault.transient_failures, b.fault.transient_failures);
  EXPECT_EQ(a.fault.retries, b.fault.retries);
  EXPECT_EQ(a.fault.permanent_failures, b.fault.permanent_failures);
  EXPECT_EQ(a.fault.wasted_bytes, b.fault.wasted_bytes);
  EXPECT_EQ(a.fault.degraded_batches, b.fault.degraded_batches);
  EXPECT_EQ(a.fault.crashes, b.fault.crashes);
  EXPECT_EQ(a.fault.recoveries, b.fault.recoveries);
  EXPECT_DOUBLE_EQ(a.fault.injected_latency_seconds, b.fault.injected_latency_seconds);
  EXPECT_DOUBLE_EQ(a.fault.backoff_seconds, b.fault.backoff_seconds);
  ASSERT_EQ(a.per_worker_fault.size(), b.per_worker_fault.size());
  for (std::size_t w = 0; w < a.per_worker_fault.size(); ++w) {
    EXPECT_EQ(a.per_worker_fault[w].transient_failures, b.per_worker_fault[w].transient_failures);
    EXPECT_EQ(a.per_worker_fault[w].wasted_bytes, b.per_worker_fault[w].wasted_bytes);
  }
  // The training trajectory itself also stays bit-identical under faults.
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.history[e].mean_loss, b.history[e].mean_loss);
  }
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_EQ(a.comm.total_bytes(), b.comm.total_bytes());
}

TEST(TrainerFaults, PermanentFailuresDegradeBatchesButTrainingCompletes) {
  auto config = base_config(Method::kSplpgPlus, 2);
  config.faults.transient_fetch_failure_rate = 0.6;
  config.retry.max_attempts = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_GT(result.fault.permanent_failures, 0U);
  EXPECT_GT(result.fault.degraded_batches, 0U);
  EXPECT_GT(result.fault.wasted_bytes, 0U);
}

TEST(TrainerFaults, CrashUnderGradientAveragingCompletes) {
  auto config = faulty_config();
  config.sync = dist::SyncMode::kGradientAveraging;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 4U);
  EXPECT_EQ(result.fault.crashes, 1U);
  EXPECT_EQ(result.fault.recoveries, 1U);
}

TEST(TrainerFaults, CheckpointFilesWrittenAndFinalOneMatchesModel) {
  const auto dir = std::filesystem::temp_directory_path() / "splpg_ckpt_test";
  std::filesystem::remove_all(dir);
  auto config = faulty_config();
  config.checkpoint_dir = dir.string();
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  for (std::uint32_t e = 0; e <= 4; ++e) {
    EXPECT_TRUE(std::filesystem::exists(dir / ("model_epoch_" + std::to_string(e) + ".bin")))
        << "epoch " << e;
  }
  // Round trip: the final on-disk checkpoint restores the trained model.
  nn::LinkPredictionModel restored(result.model->config(), 999);
  nn::load_parameters_file((dir / "model_epoch_4.bin").string(), restored);
  const auto& expected = result.model->parameters();
  const auto& actual = restored.parameters();
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& want = expected[i].value();
    const auto& got = actual[i].value();
    ASSERT_EQ(want.rows(), got.rows());
    ASSERT_EQ(want.cols(), got.cols());
    for (std::size_t r = 0; r < want.rows(); ++r) {
      for (std::size_t c = 0; c < want.cols(); ++c) {
        ASSERT_EQ(want.at(r, c), got.at(r, c));
      }
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(TrainerFaults, MalformedFaultPlanRejectedUpFront) {
  auto config = base_config(Method::kSplpg, 1);
  config.faults.transient_fetch_failure_rate = 1.5;
  EXPECT_THROW(train_link_prediction(problem().split, problem().dataset.features, config),
               std::invalid_argument);
}

TEST(Trainer, PatienceWithoutEvalEveryRejected) {
  // Early stopping counts evaluations; with eval_every == 0 there is only the
  // final one, so patience could never fire.
  auto config = base_config(Method::kCentralized, 1);
  config.patience = 2;
  try {
    (void)train_link_prediction(problem().split, problem().dataset.features, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("patience"), std::string::npos) << message;
    EXPECT_NE(message.find("eval_every"), std::string::npos) << message;
  }
}

TEST(Trainer, ZeroEpochsOrBatchSizeRejectedNamingTheField) {
  // batch_size divides the round count (a zero used to kill the process
  // with SIGFPE), and zero epochs used to report an untrained AUC of 0.
  for (const std::string field : {"epochs", "batch_size"}) {
    auto config = base_config(Method::kSplpg, 1);
    (field == "epochs" ? config.epochs : config.batch_size) = 0;
    try {
      (void)train_link_prediction(problem().split, problem().dataset.features, config);
      ADD_FAILURE() << field << " = 0 was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos) << error.what();
    }
  }
}

TEST(Trainer, ModelInDimOtherThanFeatureDimRejectedNamingBothValues) {
  // Layer 1's weights have in_dim rows and its GEMMs read features.dim() of
  // them: a smaller in_dim used to corrupt the heap, a larger one trained
  // silently on a slice of the weights.
  const std::size_t dim = problem().dataset.features.dim();
  ASSERT_NE(dim, 8U);
  for (const std::size_t in_dim : {std::size_t{8}, dim + 1}) {
    auto config = base_config(Method::kCentralized, 1);
    config.model.in_dim = in_dim;
    try {
      (void)train_link_prediction(problem().split, problem().dataset.features, config);
      ADD_FAILURE() << "model.in_dim = " << in_dim << " was accepted";
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("model.in_dim"), std::string::npos) << message;
      EXPECT_NE(message.find("(" + std::to_string(in_dim) + ")"), std::string::npos) << message;
      EXPECT_NE(message.find("(" + std::to_string(dim) + ")"), std::string::npos) << message;
    }
  }
  auto config = base_config(Method::kCentralized, 1);
  config.model.in_dim = dim;
  config.max_batches_per_epoch = 1;
  EXPECT_EQ(train_link_prediction(problem().split, problem().dataset.features, config)
                .history.size(),
            1U);
}

class PartitionCountTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PartitionCountTest, SplpgRunsAtEveryPaperPartitionCount) {
  auto config = base_config(Method::kSplpg, 1);
  config.num_partitions = GetParam();
  config.max_batches_per_epoch = 2;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.history.size(), 1U);
  EXPECT_GT(result.comm.total_bytes(), 0U);
}

INSTANTIATE_TEST_SUITE_P(PaperPartitionCounts, PartitionCountTest,
                         ::testing::Values(2U, 4U, 8U, 16U));

// ---- regression: per-epoch comm normalization under early stopping ----

TEST(Trainer, EarlyStopNormalizesCommByEpochsRun) {
  // lr = 0 freezes the model, so validation Hits@K never improves after the
  // first evaluation and patience = 1 stops training well before epoch 6.
  auto config = base_config(Method::kSplpg, 6);
  config.learning_rate = 0.0F;
  config.eval_every = 1;
  config.patience = 1;
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  ASSERT_LT(result.history.size(), 6U);
  ASSERT_FALSE(result.history.empty());
  EXPECT_GT(result.comm.total_bytes(), 0U);
  // Normalized by epochs actually run, not the configured count.
  EXPECT_DOUBLE_EQ(
      result.comm_gigabytes_per_epoch,
      result.comm.total_gigabytes() / static_cast<double>(result.history.size()));
}

// ---- regression: returned model is the replica the final evaluation scored ----

TEST(TrainerFaults, ReturnedModelMatchesReportedTestHits) {
  // Worker 0 crashes at the start of the FINAL epoch. The final evaluation
  // then scores the first surviving replica (worker 1) while worker 0 is
  // restored from the stale epoch-2 checkpoint — returning replicas[0] would
  // hand back a model whose metrics differ from the reported ones.
  auto config = base_config(Method::kSplpg, 3);
  config.checkpoint_every = 2;
  config.faults.crashes = {{0, 3, 0}};
  const TrainResult result = train_link_prediction(problem().split, problem().dataset.features,
                                                   config);
  EXPECT_EQ(result.fault.crashes, 1U);
  ASSERT_NE(result.model, nullptr);

  // Re-evaluate the returned model with the trainer's own evaluator setup:
  // it must reproduce the reported test metrics exactly.
  const Evaluator evaluator(problem().split, problem().dataset.features,
                            result.model->default_fanouts(), config.eval_k);
  const EvalResult eval = evaluator.evaluate(*result.model);
  EXPECT_DOUBLE_EQ(eval.test_hits, result.test_hits);
  EXPECT_DOUBLE_EQ(eval.test_auc, result.test_auc);
  EXPECT_DOUBLE_EQ(eval.val_hits, result.best_val_hits);
}

// ---- ThreadPool knob: bit-identical results, metered preprocessing ----

TEST(Trainer, ThreadPoolKnobDoesNotChangeResults) {
  const auto serial_config = base_config(Method::kSplpg, 2);
  auto pooled_config = serial_config;
  pooled_config.num_threads = 4;
  const TrainResult serial = train_link_prediction(problem().split, problem().dataset.features,
                                                   serial_config);
  const TrainResult pooled = train_link_prediction(problem().split, problem().dataset.features,
                                                   pooled_config);
  ASSERT_EQ(serial.history.size(), pooled.history.size());
  for (std::size_t e = 0; e < serial.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(serial.history[e].mean_loss, pooled.history[e].mean_loss);
    EXPECT_DOUBLE_EQ(serial.history[e].comm_gigabytes, pooled.history[e].comm_gigabytes);
  }
  EXPECT_DOUBLE_EQ(serial.test_hits, pooled.test_hits);
  EXPECT_DOUBLE_EQ(serial.test_auc, pooled.test_auc);
  EXPECT_EQ(serial.comm.total_bytes(), pooled.comm.total_bytes());
  // Both meter preprocessing wall time.
  EXPECT_GT(serial.sparsify_seconds, 0.0);
  EXPECT_GT(pooled.sparsify_seconds, 0.0);
}

TEST(Evaluator, ParallelScoringBitIdenticalToSerial) {
  nn::ModelConfig model_config;
  model_config.in_dim = problem().dataset.features.dim();
  model_config.hidden_dim = 16;
  model_config.num_layers = 2;
  const nn::LinkPredictionModel model(model_config, 5);
  const auto fanouts = model.default_fanouts();

  // Small chunk size so several chunks are in flight on the pool.
  const Evaluator serial(problem().split, problem().dataset.features, fanouts, 0, 64, 7, 1);
  const Evaluator pooled(problem().split, problem().dataset.features, fanouts, 0, 64, 7, 4);

  std::vector<sampling::NodePair> pairs(problem().split.val_neg.begin(),
                                        problem().split.val_neg.end());
  const auto serial_scores = serial.score_pairs(model, pairs);
  const auto pooled_scores = pooled.score_pairs(model, pairs);
  ASSERT_EQ(serial_scores.size(), pooled_scores.size());
  for (std::size_t i = 0; i < serial_scores.size(); ++i) {
    EXPECT_EQ(serial_scores[i], pooled_scores[i]) << "pair " << i;  // bit-exact
  }

  const EvalResult a = serial.evaluate(model);
  const EvalResult b = pooled.evaluate(model);
  EXPECT_DOUBLE_EQ(a.val_hits, b.val_hits);
  EXPECT_DOUBLE_EQ(a.test_hits, b.test_hits);
  EXPECT_DOUBLE_EQ(a.val_auc, b.val_auc);
  EXPECT_DOUBLE_EQ(a.test_auc, b.test_auc);
}

nn::LinkPredictionModel small_model(nn::GnnKind gnn) {
  nn::ModelConfig model_config;
  model_config.gnn = gnn;
  model_config.in_dim = problem().dataset.features.dim();
  model_config.hidden_dim = 16;
  model_config.num_layers = 2;
  return nn::LinkPredictionModel(model_config, 5);
}

TEST(Evaluator, ZeroFanoutScoresIgnoreCallComposition) {
  // With full neighborhoods a pair's score is a function of the pair alone:
  // one pass over A ++ B, separate passes over A and B, and one pass per
  // pair all give the same bits, at every pool width.
  const auto& val_neg = problem().split.val_neg;
  const auto& test_neg = problem().split.test_neg;
  ASSERT_GE(val_neg.size(), 40U);
  ASSERT_GE(test_neg.size(), 30U);
  const std::vector<sampling::NodePair> a(val_neg.begin(), val_neg.begin() + 40);
  const std::vector<sampling::NodePair> b(test_neg.begin(), test_neg.begin() + 30);
  std::vector<sampling::NodePair> joined = a;
  joined.insert(joined.end(), b.begin(), b.end());

  for (const auto gnn : {nn::GnnKind::kGcn, nn::GnnKind::kSage, nn::GnnKind::kGat}) {
    const nn::LinkPredictionModel model = small_model(gnn);
    const std::vector<std::uint32_t> zero_fanouts(model.config().num_layers, 0U);
    std::vector<float> reference;
    for (const std::size_t threads : {1U, 4U}) {
      const Evaluator evaluator(problem().split, problem().dataset.features, zero_fanouts, 0,
                                16, 7, threads);
      const std::string where = nn::to_string(gnn) + " threads " + std::to_string(threads);
      const auto whole = evaluator.score_pairs(model, joined);
      auto parts = evaluator.score_pairs(model, a);
      const auto tail = evaluator.score_pairs(model, b);
      parts.insert(parts.end(), tail.begin(), tail.end());
      ASSERT_EQ(whole.size(), joined.size()) << where;
      ASSERT_EQ(parts.size(), joined.size()) << where;
      if (reference.empty()) reference = whole;
      for (std::size_t i = 0; i < joined.size(); ++i) {
        const auto single = evaluator.score_pairs(model, {&joined[i], 1});
        ASSERT_EQ(single.size(), 1U);
        EXPECT_EQ(whole[i], parts[i]) << where << " pair " << i;  // bit-exact
        EXPECT_EQ(whole[i], single[0]) << where << " pair " << i;
        EXPECT_EQ(whole[i], reference[i]) << where << " pair " << i;
      }
    }
  }
}

TEST(Evaluator, EmptyPairsScoreToEmpty) {
  const nn::LinkPredictionModel model = small_model(nn::GnnKind::kSage);
  for (const std::size_t threads : {1U, 4U}) {
    const Evaluator evaluator(problem().split, problem().dataset.features,
                              model.default_fanouts(), 0, 512, 7, threads);
    EXPECT_TRUE(evaluator.score_pairs(model, {}).empty());
  }

  // A split without validation pairs still evaluates its test pairs, and a
  // split without any pairs evaluates to the metrics' empty-input values.
  sampling::LinkSplit no_val = problem().split;
  no_val.val_pos.clear();
  no_val.val_neg.clear();
  const Evaluator no_val_evaluator(no_val, problem().dataset.features, model.default_fanouts());
  const EvalResult result = no_val_evaluator.evaluate(model);
  EXPECT_EQ(result.val_hits, 0.0);
  EXPECT_EQ(result.val_auc, 0.5);
  EXPECT_GT(result.test_auc, 0.0);

  sampling::LinkSplit empty = no_val;
  empty.test_pos.clear();
  empty.test_neg.clear();
  const Evaluator empty_evaluator(empty, problem().dataset.features, model.default_fanouts());
  const EvalResult nothing = empty_evaluator.evaluate(model);
  EXPECT_EQ(nothing.test_hits, 0.0);
  EXPECT_EQ(nothing.test_auc, 0.5);
}

TEST(Evaluator, RejectsOutOfRangeNodeIds) {
  const nn::LinkPredictionModel model = small_model(nn::GnnKind::kSage);
  const Evaluator evaluator(problem().split, problem().dataset.features,
                            model.default_fanouts());
  const graph::NodeId num_nodes = problem().split.train_graph.num_nodes();
  for (const sampling::NodePair bad : {sampling::NodePair{num_nodes, 0},
                                       sampling::NodePair{0, num_nodes + 100}}) {
    const std::vector<sampling::NodePair> pairs = {{0, 1}, {1, 2}, bad};
    try {
      (void)evaluator.score_pairs(model, pairs);
      FAIL() << "expected std::out_of_range";
    } catch (const std::out_of_range& error) {
      EXPECT_NE(std::string(error.what()).find("pair 2"), std::string::npos) << error.what();
    }
  }
}

// ---- known answers: the trainer's bytes pinned against recorded digests ----
//
// Every other determinism test compares two runs of the same code, so a
// change that reorders RNG draws or collective calls passes them all. These
// digests were recorded once and cover final parameters, per-epoch records,
// graph/sync bytes per worker and fault counters. The scalar backend is
// pinned so the digests hold on every host; the SIMD cases at the end pin
// one SpLPG and one centralized run per SIMD backend and skip on hosts that
// cannot run it.

/// FNV-1a over the raw bytes of trivially copyable values.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      hash_ = (hash_ ^ bytes[i]) * 1099511628211ULL;
    }
  }
  void add(const dist::CommStats& c) {
    for (const std::uint64_t v : {c.structure_bytes, c.feature_bytes, c.structure_fetches,
                                  c.feature_fetches, c.batches, c.sync_bytes, c.sync_messages}) {
      add(v);
    }
  }
  void add(const dist::FaultStats& f) {
    for (const std::uint64_t v :
         {f.transient_failures, f.retries, f.permanent_failures, f.wasted_bytes,
          f.degraded_batches, f.crashes, f.recoveries, f.storage_write_faults,
          f.storage_read_faults, f.checkpoint_write_failures, f.checkpoints_skipped_invalid}) {
      add(v);
    }
    add(f.injected_latency_seconds);
    add(f.backoff_seconds);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

std::uint64_t result_digest(const TrainResult& result) {
  Digest digest;
  for (const auto& p : result.model->parameters()) {
    digest.add(p.value().rows());
    digest.add(p.value().cols());
    for (const float v : p.value().data()) digest.add(v);
  }
  for (const EpochRecord& r : result.history) {
    digest.add(r.epoch);
    for (const double v :
         {r.mean_loss, r.comm_gigabytes, r.sync_gigabytes, r.val_hits, r.test_hits, r.test_auc}) {
      digest.add(v);
    }
  }
  for (const double v : {result.best_val_hits, result.test_hits, result.test_auc}) digest.add(v);
  digest.add(result.eval_k);
  digest.add(result.total_batches);
  digest.add(result.comm);
  for (const auto& c : result.per_worker_comm) digest.add(c);
  digest.add(result.fault);
  for (const auto& f : result.per_worker_fault) digest.add(f);
  return digest.value();
}

void expect_golden(const TrainConfig& config, std::uint64_t want,
                   tensor::VecBackend backend = tensor::VecBackend::kScalar) {
  if (!tensor::vec_backend_supported(backend)) {
    GTEST_SKIP() << tensor::vec_backend_name(backend) << " is not supported on this host";
  }
  const tensor::VecBackend original = tensor::vec_active_backend();
  ASSERT_TRUE(tensor::set_vec_backend(backend));
  const TrainResult result =
      train_link_prediction(problem().split, problem().dataset.features, config);
  ASSERT_TRUE(tensor::set_vec_backend(original));
  // Every worker trains on edges here, so each one meters batches.
  for (const auto& c : result.per_worker_comm) EXPECT_GT(c.batches, 0U);
  EXPECT_EQ(result_digest(result), want)
      << std::hex << "digest 0x" << result_digest(result) << std::dec << ", final loss "
      << result.history.back().mean_loss << ", test AUC " << result.test_auc;
}

TEST(TrainerGolden, SplpgGradientAveraging) {
  auto config = base_config(Method::kSplpg, 3);
  config.sync = dist::SyncMode::kGradientAveraging;
  expect_golden(config, 0xf4ff3799b067a37eULL);
}

TEST(TrainerGolden, SplpgModelAveraging) {
  auto config = base_config(Method::kSplpg, 3);
  config.sync = dist::SyncMode::kModelAveraging;
  expect_golden(config, 0x3c0ecd81fdddfa04ULL);
}

TEST(TrainerGolden, SplpgPlusPeriodicAveragingTopK) {
  // Five rounds per epoch averaged every two: mid-epoch averages after rounds
  // 2 and 4, and the epoch-end flush after round 5.
  auto config = base_config(Method::kSplpgPlus, 3);
  config.batch_size = 32;
  config.max_batches_per_epoch = 5;
  config.sync = dist::SyncMode::kModelAveraging;
  config.local_steps = 2;
  config.comm_hook = dist::CommHookKind::kTopK;
  config.topk_fraction = 0.05F;
  expect_golden(config, 0x7664f6f6128d91bfULL);
}

TEST(TrainerGolden, PsgdPaPlusModelAveragingInt8) {
  auto config = base_config(Method::kPsgdPaPlus, 3);
  config.sync = dist::SyncMode::kModelAveraging;
  config.comm_hook = dist::CommHookKind::kInt8;
  expect_golden(config, 0x7d184a12a37fe619ULL);
}

TEST(TrainerGolden, LlcgPerEpochEvaluation) {
  auto config = base_config(Method::kLlcg, 2);
  config.eval_every = 1;
  expect_golden(config, 0x815ab9cd295b4f61ULL);
}

TEST(TrainerGolden, Centralized) {
  expect_golden(base_config(Method::kCentralized, 3), 0xfdf4c648d1629dbbULL);
}

TEST(TrainerGolden, SplpgFaultsAndCrashPooledPipelined) {
  auto config = base_config(Method::kSplpg, 3);
  config.sync = dist::SyncMode::kGradientAveraging;
  config.faults.transient_fetch_failure_rate = 0.05;
  config.faults.fetch_latency_seconds = 1e-5;
  config.faults.crashes = {{1, 2, 1}};
  config.worker_threads = 2;
  expect_golden(config, 0x5de25f091a631082ULL);
}

TEST(TrainerGolden, SplpgPlusWorkerZeroCrashEarlyStopWithoutCheckpoints) {
  // Worker 0 crashes, so evaluation scores worker 1's replica; without
  // checkpoints the respawn copies a survivor's parameters. Validation
  // Hits@K stalls after epoch 6, so patience stops the run after epoch 7.
  auto config = base_config(Method::kSplpgPlus, 8);
  config.sync = dist::SyncMode::kModelAveraging;
  config.checkpoint_every = 0;
  config.faults.crashes = {{0, 2, 0}};
  config.eval_every = 1;
  config.patience = 1;
  expect_golden(config, 0xc4af56428bd94134ULL);
}

// SIMD backends keep their own bytes: FMA contraction and lane-order
// reductions make them differ from scalar, but each must reproduce its own
// digest exactly. The centralized run uses a hidden width that leaves a
// remainder on every vector width, so the GEMMs' scalar tail columns train
// too.
TrainConfig simd_splpg_config() {
  auto config = base_config(Method::kSplpg, 3);
  config.sync = dist::SyncMode::kGradientAveraging;
  return config;
}

TrainConfig simd_centralized_config() {
  auto config = base_config(Method::kCentralized, 3);
  config.model.hidden_dim = 20;
  return config;
}

TEST(TrainerGolden, SplpgOnSse2) {
  expect_golden(simd_splpg_config(), 0x088522dc174b80beULL, tensor::VecBackend::kSse2);
}

TEST(TrainerGolden, SplpgOnAvx2) {
  expect_golden(simd_splpg_config(), 0x9eb47170a32a0a47ULL, tensor::VecBackend::kAvx2);
}

TEST(TrainerGolden, SplpgOnAvx512) {
  expect_golden(simd_splpg_config(), 0x46a3f5b37694e7a4ULL, tensor::VecBackend::kAvx512);
}

TEST(TrainerGolden, CentralizedOnSse2) {
  expect_golden(simd_centralized_config(), 0x728251fc57293730ULL, tensor::VecBackend::kSse2);
}

TEST(TrainerGolden, CentralizedOnAvx2) {
  expect_golden(simd_centralized_config(), 0x4a35066fa05a08a7ULL, tensor::VecBackend::kAvx2);
}

// Equal to the AVX2 digest: at hidden width 20 both backends issue the same
// fma per GEMM element and their dot products add the same lane pairs.
TEST(TrainerGolden, CentralizedOnAvx512) {
  expect_golden(simd_centralized_config(), 0x4a35066fa05a08a7ULL, tensor::VecBackend::kAvx512);
}

}  // namespace
}  // namespace splpg::core
