// Tests for the communication-efficient training regimes: CommHook
// compression (kNone/kTopK/kInt8) properties, collective-level bit-identity
// and metering exactness, and trainer-level regime determinism/convergence
// (local-SGD, elastic crash recovery under compression, early-stop
// normalization).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "dist/comm_hook.hpp"
#include "dist/comm_meter.hpp"
#include "dist/sync.hpp"
#include "nn/model.hpp"
#include "sampling/edge_split.hpp"
#include "tensor/int8.hpp"
#include "tensor/matrix.hpp"
#include "tensor/vec.hpp"
#include "util/rng.hpp"

namespace splpg::dist {
namespace {

tensor::Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  tensor::Matrix m(rows, cols);
  for (float& x : m.data()) x = static_cast<float>(rng.normal());
  return m;
}

// ---- CommHook unit properties ----

TEST(CommHook, KindStringsRoundTrip) {
  for (const auto kind : {CommHookKind::kNone, CommHookKind::kTopK, CommHookKind::kInt8}) {
    EXPECT_EQ(comm_hook_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)comm_hook_from_string("gzip"), std::invalid_argument);
}

TEST(CommHook, TopkKeepCountFormula) {
  EXPECT_EQ(topk_keep_count(0.01F, 100), 1U);
  EXPECT_EQ(topk_keep_count(0.5F, 7), 4U);    // ceil(3.5)
  EXPECT_EQ(topk_keep_count(1.0F, 5), 5U);
  EXPECT_EQ(topk_keep_count(1e-9F, 1000), 1U);  // floor of 1
  EXPECT_EQ(topk_keep_count(0.3F, 0), 0U);
}

TEST(CommHook, MakeHookValidatesFraction) {
  CommHookOptions options;
  for (const float bad : {0.0F, -0.5F, 1.5F}) {
    options.topk_fraction = bad;
    EXPECT_THROW((void)make_comm_hook(CommHookKind::kTopK, options, 2),
                 std::invalid_argument)
        << bad;
  }
  options.topk_fraction = 1.0F;
  EXPECT_NE(make_comm_hook(CommHookKind::kTopK, options, 2), nullptr);
}

TEST(CommHook, NoneIsIdentityAndPricesDensePayload) {
  const auto hook = make_comm_hook(CommHookKind::kNone, {}, 2);
  util::Rng rng(5);
  const tensor::Matrix in = random_matrix(6, 7, rng);
  tensor::Matrix out;
  const std::uint64_t bytes = hook->compress(0, 0, in, out);
  EXPECT_EQ(bytes, 6U * 7U * 4U);
  EXPECT_EQ(hook->payload_bytes(in), bytes);
  EXPECT_EQ(tensor::max_abs_diff(in, out), 0.0F);
}

TEST(CommHook, TopKKeepsExactlyTheKLargestMagnitudes) {
  CommHookOptions options;
  options.topk_fraction = 0.25F;
  const auto hook = make_comm_hook(CommHookKind::kTopK, options, 1);
  util::Rng rng(17);
  const tensor::Matrix in = random_matrix(8, 5, rng);
  const std::size_t n = in.size();
  const std::size_t k = topk_keep_count(options.topk_fraction, n);

  tensor::Matrix out;
  EXPECT_EQ(hook->compress(0, 0, in, out), k * 8U);

  // Expected kept set: the same (|value| desc, index asc) total order the
  // hook sorts by, computed independently with a full sort.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto values = in.data();
  std::sort(order.begin(), order.end(), [values](std::size_t a, std::size_t b) {
    const float ma = std::fabs(values[a]);
    const float mb = std::fabs(values[b]);
    if (ma != mb) return ma > mb;
    return a < b;
  });
  std::vector<bool> kept(n, false);
  for (std::size_t i = 0; i < k; ++i) kept[order[i]] = true;

  const auto out_values = out.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (kept[i]) {
      // First round: no residual, so kept entries are the input verbatim.
      EXPECT_EQ(out_values[i], values[i]) << i;
    } else {
      EXPECT_EQ(out_values[i], 0.0F) << i;
    }
  }
}

TEST(CommHook, TopKErrorFeedbackAccountsEveryEntryBitwise) {
  // Feed one tensor, then zeros: each round the residual re-offers what was
  // dropped, entries are emitted verbatim (never re-scaled), so after
  // ceil(n/k) rounds the sum of all emissions equals the input EXACTLY.
  CommHookOptions options;
  options.topk_fraction = 0.15F;
  const auto hook = make_comm_hook(CommHookKind::kTopK, options, 1);
  util::Rng rng(23);
  const tensor::Matrix in = random_matrix(7, 9, rng);
  const std::size_t n = in.size();
  const std::size_t k = topk_keep_count(options.topk_fraction, n);
  const std::size_t rounds = (n + k - 1) / k;

  tensor::Matrix zeros(in.rows(), in.cols());
  tensor::Matrix emitted(in.rows(), in.cols());
  tensor::Matrix out;
  (void)hook->compress(0, 0, in, out);
  emitted.add_inplace(out);
  for (std::size_t r = 1; r < rounds; ++r) {
    (void)hook->compress(0, 0, zeros, out);
    emitted.add_inplace(out);
  }
  EXPECT_EQ(tensor::max_abs_diff(emitted, in), 0.0F);

  // The residual is now fully drained: one more zero round emits zeros.
  (void)hook->compress(0, 0, zeros, out);
  for (const float x : out.data()) EXPECT_EQ(x, 0.0F);
}

TEST(CommHook, TopKResidualsArePerWorkerAndDroppedOnReset) {
  CommHookOptions options;
  options.topk_fraction = 0.1F;
  const auto hook = make_comm_hook(CommHookKind::kTopK, options, 2);
  util::Rng rng(31);
  const tensor::Matrix in = random_matrix(5, 8, rng);
  const tensor::Matrix zeros(5, 8);
  tensor::Matrix out;

  (void)hook->compress(0, 0, in, out);   // worker 0 carries a residual
  (void)hook->compress(1, 0, zeros, out);  // worker 1's stream is independent
  for (const float x : out.data()) EXPECT_EQ(x, 0.0F);

  hook->reset_worker(0);  // crash recovery: stale residual must not survive
  (void)hook->compress(0, 0, zeros, out);
  for (const float x : out.data()) EXPECT_EQ(x, 0.0F);
}

TEST(CommHook, TopKRejectsShapeChangeMidRun) {
  const auto hook = make_comm_hook(CommHookKind::kTopK, {}, 1);
  util::Rng rng(2);
  const tensor::Matrix a = random_matrix(3, 3, rng);
  const tensor::Matrix b = random_matrix(2, 5, rng);
  tensor::Matrix out;
  (void)hook->compress(0, 0, a, out);
  EXPECT_THROW((void)hook->compress(0, 0, b, out), std::invalid_argument);
}

TEST(CommHook, Int8RoundTripWithinDocumentedBound) {
  const auto hook = make_comm_hook(CommHookKind::kInt8, {}, 1);
  util::Rng rng(41);
  tensor::Matrix in = random_matrix(9, 11, rng);
  in.data()[3] = 4.5F;  // pin a known amax
  float amax = 0.0F;
  for (const float x : in.data()) amax = std::max(amax, std::fabs(x));

  tensor::Matrix out;
  EXPECT_EQ(hook->compress(0, 0, in, out), static_cast<std::uint64_t>(in.size()) + 4U);
  const float bound = amax / 254.0F + amax * 1e-5F;
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_LE(std::fabs(out.data()[i] - in.data()[i]), bound) << i;
  }
}

TEST(CommHook, Int8IsExactOnIntegerGridAndZeros) {
  const auto hook = make_comm_hook(CommHookKind::kInt8, {}, 1);
  // amax = 127 -> scale = 1: integer values in [-127, 127] survive exactly.
  tensor::Matrix in(1, 5);
  in.data()[0] = -127.0F;
  in.data()[1] = -3.0F;
  in.data()[2] = 0.0F;
  in.data()[3] = 64.0F;
  in.data()[4] = 127.0F;
  tensor::Matrix out;
  (void)hook->compress(0, 0, in, out);
  EXPECT_EQ(tensor::max_abs_diff(in, out), 0.0F);

  tensor::Matrix zeros(4, 4);
  (void)hook->compress(0, 0, zeros, out);
  for (const float x : out.data()) EXPECT_EQ(x, 0.0F);
}

TEST(CommHook, Int8AndTensorQuantizerShareOneRounding) {
  // Known answer: amax = 0x1.b3268p-4 and x = -0x1.0b41fap-6 round to q = -20
  // through x * (127 / amax), but to -19 through x * (1 / (amax / 127)).
  // The hook and tensor/int8 must both take the former.
  tensor::Matrix in(1, 2);
  in.data()[0] = 0x1.b3268p-4F;
  in.data()[1] = -0x1.0b41fap-6F;
  const auto q = tensor::quantize_symmetric(in);
  EXPECT_EQ(q.values[0], 127);
  EXPECT_EQ(q.values[1], -20);

  const auto hook = make_comm_hook(CommHookKind::kInt8, {}, 1);
  tensor::Matrix out;
  (void)hook->compress(0, 0, in, out);
  const tensor::Matrix expected = tensor::dequantize(q);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.data()[i], expected.data()[i]) << i;
  }
  EXPECT_EQ(out.data()[1], -20.0F * (0x1.b3268p-4F / 127.0F));
}

// ---- collective-level: bit-identity, determinism, metering ----

class CommSyncFixture {
 public:
  explicit CommSyncFixture(std::uint32_t workers, std::uint64_t model_seed = 99)
      : context_(workers) {
    nn::ModelConfig config;
    config.in_dim = 4;
    config.hidden_dim = 8;
    config.num_layers = 2;
    config.predictor = nn::PredictorKind::kDot;
    for (std::uint32_t w = 0; w < workers; ++w) {
      replicas_.push_back(std::make_unique<nn::LinkPredictionModel>(config, model_seed));
      context_.register_replica(w, replicas_.back().get());
      meters_.emplace_back(std::make_unique<CommMeter>());
      context_.attach_meter(w, meters_.back().get());
    }
  }

  /// Deterministic per-(worker, param) gradients, identical across fixtures.
  void fill_gradients(std::uint64_t seed) {
    for (std::uint32_t w = 0; w < context_.num_workers(); ++w) {
      util::Rng rng = util::Rng(seed).split("grad", w);
      for (auto& param : replicas_[w]->parameters()) {
        auto& grad = param.mutable_grad();
        grad.resize(param.value().rows(), param.value().cols());
        for (float& x : grad.data()) x = static_cast<float>(rng.normal());
      }
    }
  }

  /// Deterministic per-worker parameter perturbation (replicas diverge, as
  /// after local steps).
  void perturb_values(std::uint64_t seed) {
    for (std::uint32_t w = 0; w < context_.num_workers(); ++w) {
      util::Rng rng = util::Rng(seed).split("value", w);
      for (auto& param : replicas_[w]->parameters()) {
        for (float& x : param.mutable_value().data()) {
          x += static_cast<float>(rng.normal() * 0.01);
        }
      }
    }
  }

  /// Every active worker calls `fn` concurrently (collectives need all
  /// parties at the barrier).
  void run_collective(void (DistContext::*fn)()) {
    std::vector<std::thread> threads;
    for (std::uint32_t w = 0; w < context_.num_workers(); ++w) {
      if (!context_.is_active(w)) continue;
      threads.emplace_back([this, fn] { (context_.*fn)(); });
    }
    for (auto& t : threads) t.join();
  }

  [[nodiscard]] float max_param_diff(const CommSyncFixture& other) const {
    float worst = 0.0F;
    for (std::uint32_t w = 0; w < context_.num_workers(); ++w) {
      const auto& mine = replicas_[w]->parameters();
      const auto& theirs = other.replicas_[w]->parameters();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        worst = std::max(worst, tensor::max_abs_diff(mine[i].value(), theirs[i].value()));
      }
    }
    return worst;
  }

  [[nodiscard]] float max_grad_diff(const CommSyncFixture& other) const {
    float worst = 0.0F;
    for (std::uint32_t w = 0; w < context_.num_workers(); ++w) {
      const auto& mine = replicas_[w]->parameters();
      const auto& theirs = other.replicas_[w]->parameters();
      for (std::size_t i = 0; i < mine.size(); ++i) {
        worst = std::max(worst, tensor::max_abs_diff(mine[i].grad(), theirs[i].grad()));
      }
    }
    return worst;
  }

  void install_hook(CommHookKind kind, float fraction = 0.25F) {
    CommHookOptions options;
    options.topk_fraction = fraction;
    context_.set_comm_hook(make_comm_hook(kind, options, context_.num_workers()));
  }

  DistContext context_;
  std::vector<std::unique_ptr<nn::LinkPredictionModel>> replicas_;
  std::vector<std::unique_ptr<CommMeter>> meters_;
};

TEST(CommSync, NoneHookIsBitIdenticalToUnhookedCollectives) {
  CommSyncFixture hooked(3);
  CommSyncFixture plain(3);
  hooked.install_hook(CommHookKind::kNone);

  hooked.fill_gradients(7);
  plain.fill_gradients(7);
  hooked.run_collective(&DistContext::all_reduce_gradients);
  plain.run_collective(&DistContext::all_reduce_gradients);
  EXPECT_EQ(hooked.max_grad_diff(plain), 0.0F);

  hooked.perturb_values(8);
  plain.perturb_values(8);
  hooked.run_collective(&DistContext::average_models);
  plain.run_collective(&DistContext::average_models);
  EXPECT_EQ(hooked.max_param_diff(plain), 0.0F);

  // The kNone hook still meters the dense payload it would have sent.
  std::uint64_t param_bytes = 0;
  for (const auto& p : hooked.replicas_[0]->parameters()) {
    param_bytes += static_cast<std::uint64_t>(p.value().size()) * 4U;
  }
  for (std::uint32_t w = 0; w < 3; ++w) {
    EXPECT_EQ(hooked.meters_[w]->stats().sync_bytes, 2U * param_bytes) << w;
    EXPECT_EQ(plain.meters_[w]->stats().sync_bytes, 0U) << w;  // no hook, no charge
  }
}

TEST(CommSync, MeteringEqualsSerializedPayloadPerHook) {
  const float fraction = 0.2F;
  for (const auto kind : {CommHookKind::kNone, CommHookKind::kTopK, CommHookKind::kInt8}) {
    CommSyncFixture fixture(2);
    fixture.install_hook(kind, fraction);
    fixture.fill_gradients(13);
    fixture.run_collective(&DistContext::all_reduce_gradients);

    std::uint64_t expected = 0;
    std::uint64_t messages = 0;
    for (const auto& p : fixture.replicas_[0]->parameters()) {
      const std::size_t n = p.value().size();
      switch (kind) {
        case CommHookKind::kNone: expected += 4U * n; break;
        case CommHookKind::kTopK: expected += topk_keep_count(fraction, n) * 8U; break;
        case CommHookKind::kInt8: expected += n + 4U; break;
      }
      ++messages;
    }
    for (std::uint32_t w = 0; w < 2; ++w) {
      EXPECT_EQ(fixture.meters_[w]->stats().sync_bytes, expected) << to_string(kind);
      EXPECT_EQ(fixture.meters_[w]->stats().sync_messages, messages) << to_string(kind);
      // Sync payload is NOT part of the paper's graph-data metric.
      EXPECT_EQ(fixture.meters_[w]->stats().total_bytes(), 0U) << to_string(kind);
    }
  }
}

TEST(CommSync, CompressedCollectivesAreDeterministicAcrossRuns) {
  for (const auto kind : {CommHookKind::kTopK, CommHookKind::kInt8}) {
    CommSyncFixture a(3);
    CommSyncFixture b(3);
    a.install_hook(kind);
    b.install_hook(kind);
    for (int round = 0; round < 3; ++round) {
      a.fill_gradients(100 + static_cast<std::uint64_t>(round));
      b.fill_gradients(100 + static_cast<std::uint64_t>(round));
      a.run_collective(&DistContext::all_reduce_gradients);
      b.run_collective(&DistContext::all_reduce_gradients);
      a.perturb_values(200 + static_cast<std::uint64_t>(round));
      b.perturb_values(200 + static_cast<std::uint64_t>(round));
      a.run_collective(&DistContext::average_models);
      b.run_collective(&DistContext::average_models);
    }
    EXPECT_EQ(a.max_grad_diff(b), 0.0F) << to_string(kind);
    EXPECT_EQ(a.max_param_diff(b), 0.0F) << to_string(kind);
    EXPECT_EQ(a.meters_[0]->stats().sync_bytes, b.meters_[0]->stats().sync_bytes);
  }
}

TEST(CommSync, CompressedAverageEqualizesReplicasOnSharedReference) {
  // All replicas agree after a compressed average: every worker receives the
  // same advanced reference model regardless of hook lossiness.
  for (const auto kind : {CommHookKind::kTopK, CommHookKind::kInt8}) {
    CommSyncFixture fixture(3);
    fixture.install_hook(kind);
    fixture.perturb_values(55);
    fixture.run_collective(&DistContext::average_models);
    const auto& first = fixture.replicas_[0]->parameters();
    for (std::uint32_t w = 1; w < 3; ++w) {
      const auto& other = fixture.replicas_[w]->parameters();
      for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(tensor::max_abs_diff(first[i].value(), other[i].value()), 0.0F)
            << to_string(kind) << " worker " << w << " param " << i;
      }
    }
  }
}

TEST(CommSync, LeaveAndRejoinUnderEachHookStaysDeterministic) {
  for (const auto kind : {CommHookKind::kNone, CommHookKind::kTopK, CommHookKind::kInt8}) {
    auto run_once = [kind](CommSyncFixture& fixture) {
      fixture.install_hook(kind);
      fixture.perturb_values(71);
      fixture.run_collective(&DistContext::average_models);  // full membership
      fixture.context_.leave(2);
      fixture.perturb_values(72);
      fixture.run_collective(&DistContext::average_models);  // survivors only
      // Recovery: resync the dead replica from a survivor (the trainer
      // restores from the checkpoint of the corrected global model), then
      // rejoin — the hook drops any stale residual.
      nn::copy_parameters(*fixture.replicas_[0], *fixture.replicas_[2]);
      fixture.context_.rejoin(2);
      fixture.perturb_values(73);
      fixture.run_collective(&DistContext::average_models);  // full again
    };
    CommSyncFixture a(3);
    CommSyncFixture b(3);
    run_once(a);
    run_once(b);
    EXPECT_EQ(a.max_param_diff(b), 0.0F) << to_string(kind);
    EXPECT_EQ(a.context_.active_workers(), 3U);
  }
}

TEST(CommSync, RegisterReplicaValidatesParameterShapes) {
  nn::ModelConfig config;
  config.in_dim = 4;
  config.hidden_dim = 8;
  config.num_layers = 2;
  nn::LinkPredictionModel base(config, 1);

  DistContext context(2);
  context.register_replica(0, &base);

  nn::ModelConfig wrong_shape = config;
  wrong_shape.hidden_dim = 16;  // same parameter count, different shapes
  nn::LinkPredictionModel shape_model(wrong_shape, 1);
  try {
    context.register_replica(1, &shape_model);
    FAIL() << "shape mismatch not detected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("parameter"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("worker 1"), std::string::npos);
  }

  nn::ModelConfig wrong_count = config;
  wrong_count.num_layers = 1;  // fewer parameters
  nn::LinkPredictionModel count_model(wrong_count, 1);
  EXPECT_THROW(context.register_replica(1, &count_model), std::invalid_argument);

  nn::LinkPredictionModel good(config, 2);  // different seed is fine
  context.register_replica(1, &good);
}

TEST(CommSync, SetCommHookBeforeRegistrationThrows) {
  DistContext context(2);
  CommHookOptions options;
  EXPECT_THROW(context.set_comm_hook(make_comm_hook(CommHookKind::kTopK, options, 2)),
               std::logic_error);
}

}  // namespace
}  // namespace splpg::dist

// ---- trainer-level regimes ----

namespace splpg::core {
namespace {

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

TrainConfig regime_config(dist::SyncMode sync, dist::CommHookKind hook,
                          std::uint32_t local_steps = 1, std::uint32_t epochs = 3) {
  TrainConfig config;
  config.method = Method::kSplpgPlus;  // no sparsification cost in these tests
  config.model.hidden_dim = 32;
  config.model.num_layers = 2;
  config.epochs = epochs;
  config.batch_size = 128;
  config.num_partitions = 4;
  config.max_batches_per_epoch = 4;
  config.seed = 11;
  config.sync = sync;
  config.comm_hook = hook;
  config.topk_fraction = 0.05F;
  config.local_steps = local_steps;
  return config;
}

void expect_same_result(const TrainResult& a, const TrainResult& b, const char* what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.history[e].mean_loss, b.history[e].mean_loss) << what << " epoch " << e;
    EXPECT_DOUBLE_EQ(a.history[e].sync_gigabytes, b.history[e].sync_gigabytes)
        << what << " epoch " << e;
  }
  EXPECT_DOUBLE_EQ(a.test_auc, b.test_auc) << what;
  EXPECT_EQ(a.comm.sync_bytes, b.comm.sync_bytes) << what;
  EXPECT_EQ(a.comm.total_bytes(), b.comm.total_bytes()) << what;
}

TEST(CommRegime, InvalidKnobsThrow) {
  auto bad_fraction =
      regime_config(dist::SyncMode::kGradientAveraging, dist::CommHookKind::kTopK);
  bad_fraction.topk_fraction = 0.0F;
  EXPECT_THROW((void)train_link_prediction(problem().split, problem().dataset.features,
                                           bad_fraction),
               std::invalid_argument);
}

TEST(CommRegime, EveryRegimeIsDeterministicAcrossRuns) {
  const struct {
    dist::SyncMode sync;
    dist::CommHookKind hook;
    std::uint32_t local_steps;
  } regimes[] = {
      {dist::SyncMode::kGradientAveraging, dist::CommHookKind::kNone, 1},
      {dist::SyncMode::kGradientAveraging, dist::CommHookKind::kTopK, 1},
      {dist::SyncMode::kGradientAveraging, dist::CommHookKind::kInt8, 1},
      {dist::SyncMode::kModelAveraging, dist::CommHookKind::kNone, 2},
      {dist::SyncMode::kModelAveraging, dist::CommHookKind::kTopK, 3},
  };
  for (const auto& regime : regimes) {
    const auto config = regime_config(regime.sync, regime.hook, regime.local_steps, 2);
    const TrainResult a =
        train_link_prediction(problem().split, problem().dataset.features, config);
    const TrainResult b =
        train_link_prediction(problem().split, problem().dataset.features, config);
    expect_same_result(a, b, dist::to_string(regime.hook));
    EXPECT_GT(a.comm.sync_bytes, 0U);
  }
}

TEST(CommRegime, DeterministicAcrossThreadWidthsAndPipeline) {
  // The hook runs in the barrier's serial section on whole gradient tensors,
  // so worker-pool width must not perturb compressed runs.
  auto config = regime_config(dist::SyncMode::kModelAveraging, dist::CommHookKind::kTopK, 2, 2);
  const TrainResult baseline =
      train_link_prediction(problem().split, problem().dataset.features, config);
  for (const std::size_t width : {2UL, 4UL, 7UL}) {
    auto wide = config;
    wide.worker_threads = width;
    const TrainResult result =
        train_link_prediction(problem().split, problem().dataset.features, wide);
    expect_same_result(baseline, result,
                       ("worker_threads=" + std::to_string(width)).c_str());
  }
}

TEST(CommRegime, DeterministicUnderVecBackendPins) {
  const tensor::VecBackend original = tensor::vec_active_backend();
  auto config = regime_config(dist::SyncMode::kGradientAveraging,
                              dist::CommHookKind::kInt8, 1, 2);
  for (const auto backend :
       {tensor::VecBackend::kScalar, tensor::VecBackend::kSse2, tensor::VecBackend::kAvx2,
        tensor::VecBackend::kAvx512}) {
    if (!tensor::vec_backend_supported(backend)) continue;
    ASSERT_TRUE(tensor::set_vec_backend(backend));
    const TrainResult a =
        train_link_prediction(problem().split, problem().dataset.features, config);
    const TrainResult b =
        train_link_prediction(problem().split, problem().dataset.features, config);
    expect_same_result(a, b, tensor::vec_backend_name(backend));
  }
  ASSERT_TRUE(tensor::set_vec_backend(original));
}

TEST(CommRegime, CompressionReducesSyncBytesAgainstDenseBaseline) {
  const auto dense = regime_config(dist::SyncMode::kGradientAveraging,
                                   dist::CommHookKind::kNone, 1, 2);
  const TrainResult none =
      train_link_prediction(problem().split, problem().dataset.features, dense);
  const TrainResult topk = train_link_prediction(
      problem().split, problem().dataset.features,
      regime_config(dist::SyncMode::kGradientAveraging, dist::CommHookKind::kTopK, 1, 2));
  const TrainResult int8 = train_link_prediction(
      problem().split, problem().dataset.features,
      regime_config(dist::SyncMode::kGradientAveraging, dist::CommHookKind::kInt8, 1, 2));

  ASSERT_GT(none.comm.sync_bytes, 0U);
  // int8: ~4x reduction; top-k at 5%: ~10x reduction.
  EXPECT_LT(int8.comm.sync_bytes, none.comm.sync_bytes / 3);
  EXPECT_LT(topk.comm.sync_bytes, int8.comm.sync_bytes);
  // Same number of per-parameter payloads either way.
  EXPECT_EQ(none.comm.sync_messages, topk.comm.sync_messages);
  EXPECT_EQ(none.comm.sync_messages, int8.comm.sync_messages);
  // The graph-data metric is untouched by the sync regime.
  EXPECT_EQ(none.comm.total_bytes(), topk.comm.total_bytes());
}

TEST(CommRegime, LocalSgdReducesSyncRounds) {
  // H = 1 averages after every round; H larger than any epoch degenerates to
  // exactly one catch-up average per epoch. The byte ratio between the two
  // is therefore exactly the per-epoch round count.
  const TrainResult h1 = train_link_prediction(
      problem().split, problem().dataset.features,
      regime_config(dist::SyncMode::kModelAveraging, dist::CommHookKind::kNone, 1, 2));
  const TrainResult hbig = train_link_prediction(
      problem().split, problem().dataset.features,
      regime_config(dist::SyncMode::kModelAveraging, dist::CommHookKind::kNone, 1000, 2));
  ASSERT_GT(hbig.comm.sync_bytes, 0U);
  ASSERT_EQ(h1.comm.sync_messages % hbig.comm.sync_messages, 0U);
  const std::uint64_t rounds_per_epoch = h1.comm.sync_messages / hbig.comm.sync_messages;
  EXPECT_GT(rounds_per_epoch, 1U);
  EXPECT_EQ(hbig.comm.sync_bytes * rounds_per_epoch, h1.comm.sync_bytes);
}

TEST(CommRegime, LocalSgdConvergesCloseToExactSync) {
  auto exact = regime_config(dist::SyncMode::kGradientAveraging,
                             dist::CommHookKind::kNone, 1, 5);
  exact.max_batches_per_epoch = 8;
  const TrainResult baseline =
      train_link_prediction(problem().split, problem().dataset.features, exact);
  EXPECT_GT(baseline.test_auc, 0.55);
  for (const std::uint32_t h : {2U, 8U}) {
    auto config = regime_config(dist::SyncMode::kModelAveraging, dist::CommHookKind::kNone, h, 5);
    config.max_batches_per_epoch = 8;
    const TrainResult result =
        train_link_prediction(problem().split, problem().dataset.features, config);
    // Golden tolerance: infrequent averaging may trail exact sync slightly at
    // this miniature scale, but must stay in the same accuracy regime.
    EXPECT_NEAR(result.test_auc, baseline.test_auc, 0.15) << "H=" << h;
    EXPECT_GT(result.test_auc, 0.5) << "H=" << h;
  }
}

TEST(CommRegime, CrashRecoveryUnderEachHookIsDeterministic) {
  for (const auto hook :
       {dist::CommHookKind::kNone, dist::CommHookKind::kTopK, dist::CommHookKind::kInt8}) {
    auto config = regime_config(dist::SyncMode::kModelAveraging, hook, 2, 3);
    config.faults.crashes.push_back({.worker = 1, .epoch = 2, .batch = 1});
    const TrainResult a =
        train_link_prediction(problem().split, problem().dataset.features, config);
    EXPECT_EQ(a.fault.crashes, 1U) << dist::to_string(hook);
    EXPECT_EQ(a.fault.recoveries, 1U) << dist::to_string(hook);
    EXPECT_EQ(a.history.size(), 3U) << dist::to_string(hook);
    const TrainResult b =
        train_link_prediction(problem().split, problem().dataset.features, config);
    expect_same_result(a, b, dist::to_string(hook));
  }
}

TEST(CommRegime, PerEpochNormalizationSurvivesEarlyStop) {
  // PR 2 regression, extended to the sync metric: per-epoch averages divide
  // by the epochs actually run, not the configured count.
  auto config = regime_config(dist::SyncMode::kGradientAveraging,
                              dist::CommHookKind::kTopK, 1, 8);
  config.eval_every = 1;
  config.patience = 1;
  const TrainResult result =
      train_link_prediction(problem().split, problem().dataset.features, config);
  ASSERT_FALSE(result.history.empty());
  const auto epochs = static_cast<double>(result.history.size());
  EXPECT_DOUBLE_EQ(result.comm_gigabytes_per_epoch, result.comm.total_gigabytes() / epochs);
  EXPECT_DOUBLE_EQ(result.sync_gigabytes_per_epoch, result.comm.sync_gigabytes() / epochs);

  // Per-epoch records sum back to the totals.
  double sync_sum = 0.0;
  for (const auto& record : result.history) sync_sum += record.sync_gigabytes;
  EXPECT_NEAR(sync_sum, result.comm.sync_gigabytes(), 1e-12);
}

TEST(CommRegime, SingleWorkerRunsAreUnmetered) {
  auto config = regime_config(dist::SyncMode::kGradientAveraging,
                              dist::CommHookKind::kTopK, 1, 2);
  config.method = Method::kCentralized;
  const TrainResult result =
      train_link_prediction(problem().split, problem().dataset.features, config);
  EXPECT_EQ(result.comm.sync_bytes, 0U);
  EXPECT_DOUBLE_EQ(result.sync_gigabytes_per_epoch, 0.0);
}

}  // namespace
}  // namespace splpg::core
