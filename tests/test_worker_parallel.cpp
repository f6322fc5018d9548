// Worker-side parallelism: the DESIGN.md §6 determinism contract applied to
// the per-worker hot paths. The guarantee under test: a full training run's
// observable result — loss curve, metrics, communication bytes, fault
// outcomes, and final parameters — is BIT-identical for every worker pool
// width, across sync modes and under injected faults. Plus direct
// bit-identity of the chunked neighbor sampler.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "sampling/edge_split.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/vec.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace splpg::core {
namespace {

void expect_same_matrix(const tensor::Matrix& a, const tensor::Matrix& b,
                        const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_TRUE(std::equal(a.data().begin(), a.data().end(), b.data().begin())) << what;
}

/// Full bitwise equality of everything a training run reports.
void expect_same_result(const TrainResult& a, const TrainResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    EXPECT_EQ(a.history[e].mean_loss, b.history[e].mean_loss) << what << " epoch " << e;
    EXPECT_EQ(a.history[e].comm_gigabytes, b.history[e].comm_gigabytes)
        << what << " epoch " << e;
    EXPECT_EQ(a.history[e].val_hits, b.history[e].val_hits) << what << " epoch " << e;
    EXPECT_EQ(a.history[e].test_hits, b.history[e].test_hits) << what << " epoch " << e;
  }
  EXPECT_EQ(a.best_val_hits, b.best_val_hits) << what;
  EXPECT_EQ(a.test_hits, b.test_hits) << what;
  EXPECT_EQ(a.test_auc, b.test_auc) << what;
  EXPECT_EQ(a.comm.total_bytes(), b.comm.total_bytes()) << what;
  ASSERT_EQ(a.per_worker_comm.size(), b.per_worker_comm.size()) << what;
  for (std::size_t w = 0; w < a.per_worker_comm.size(); ++w) {
    EXPECT_EQ(a.per_worker_comm[w].total_bytes(), b.per_worker_comm[w].total_bytes())
        << what << " worker " << w;
  }
  EXPECT_EQ(a.fault.transient_failures, b.fault.transient_failures) << what;
  EXPECT_EQ(a.fault.retries, b.fault.retries) << what;
  EXPECT_EQ(a.fault.permanent_failures, b.fault.permanent_failures) << what;
  EXPECT_EQ(a.fault.wasted_bytes, b.fault.wasted_bytes) << what;
  EXPECT_EQ(a.fault.degraded_batches, b.fault.degraded_batches) << what;
  EXPECT_EQ(a.fault.crashes, b.fault.crashes) << what;
  EXPECT_EQ(a.fault.recoveries, b.fault.recoveries) << what;
  EXPECT_EQ(a.total_batches, b.total_batches) << what;
  const auto& pa = a.model->parameters();
  const auto& pb = b.model->parameters();
  ASSERT_EQ(pa.size(), pb.size()) << what;
  for (std::size_t p = 0; p < pa.size(); ++p) {
    expect_same_matrix(pa[p].value(), pb[p].value(), what + " param " + std::to_string(p));
  }
}

void expect_same_graph(const sampling::ComputationGraph& a,
                       const sampling::ComputationGraph& b, const std::string& what) {
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << what;
  for (std::size_t l = 0; l < a.blocks.size(); ++l) {
    EXPECT_EQ(a.blocks[l].src_nodes, b.blocks[l].src_nodes) << what << " layer " << l;
    EXPECT_EQ(a.blocks[l].dst_count, b.blocks[l].dst_count) << what << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_src, b.blocks[l].edge_src) << what << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_dst, b.blocks[l].edge_dst) << what << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_weight, b.blocks[l].edge_weight) << what << " layer " << l;
  }
}

// ---- chunked neighbor sampling ----

TEST(WorkerParallelSampling, PooledSampleIsBitIdenticalAtEveryWidth) {
  const auto dataset = data::make_dataset("cora", 0.15, 9);
  util::Rng split_rng = util::Rng(9).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);
  sampling::GraphProvider provider(split.train_graph);
  const sampling::NeighborSampler sampler({10, 5});

  std::vector<graph::NodeId> seeds;
  util::Rng seed_rng(17);
  for (int i = 0; i < 300; ++i) {
    seeds.push_back(
        static_cast<graph::NodeId>(seed_rng.uniform_u64(split.train_graph.num_nodes())));
  }

  util::Rng rng_serial(5);
  const auto serial = sampler.sample(provider, seeds, rng_serial);
  const std::uint64_t after_one_draw = rng_serial.next();
  for (const std::size_t threads : {2U, 4U, 7U}) {
    util::ThreadPool pool(threads);
    util::Rng rng_pooled(5);
    const auto pooled = sampler.sample(provider, seeds, rng_pooled, &pool);
    expect_same_graph(serial, pooled, "threads=" + std::to_string(threads));
    // The caller-visible stream must advance identically too (one draw).
    EXPECT_EQ(after_one_draw, rng_pooled.next());
  }
}

TEST(WorkerParallelSampling, AdvancesCallerRngByExactlyOneDraw) {
  const auto dataset = data::make_dataset("citeseer", 0.1, 4);
  sampling::GraphProvider provider(dataset.graph);
  const sampling::NeighborSampler sampler({3, 3, 3});
  const std::vector<graph::NodeId> seeds{0, 1, 2, 3};

  util::Rng rng(42);
  util::Rng reference(42);
  (void)sampler.sample(provider, seeds, rng);
  (void)reference.next();
  // Consumption is constant — independent of how many nodes were expanded —
  // so back-to-back sample() calls stay aligned across configurations.
  EXPECT_EQ(rng.next(), reference.next());
}

// ---- randomized bit-identity property over full training runs ----

struct IterationPlan {
  std::string dataset;
  double scale = 0.1;
  std::uint64_t seed = 1;
  std::uint32_t partitions = 2;
  dist::SyncMode sync = dist::SyncMode::kGradientAveraging;
  bool faults = false;
  bool crash = false;
  std::size_t threads = 2;
};

TrainConfig plan_config(const IterationPlan& plan) {
  TrainConfig config;
  config.method = Method::kSplpg;
  config.model.hidden_dim = 8;
  config.model.num_layers = 2;
  config.epochs = 2;
  config.batch_size = 32;
  config.num_partitions = plan.partitions;
  config.max_batches_per_epoch = 2;
  config.sync = plan.sync;
  config.seed = plan.seed;
  if (plan.faults) {
    config.faults.transient_fetch_failure_rate = 0.3;
    config.faults.fetch_latency_seconds = 1e-4;
    config.retry.max_attempts = 2;
    if (plan.crash && plan.partitions >= 2) {
      // Round 0 of epoch 1 always exists, however small the random graph.
      config.faults.crashes.push_back(dist::CrashEvent{plan.partitions - 1, 1, 0});
    }
  }
  return config;
}

/// ~20 randomized configurations; each asserts the run is bit-identical
/// between the serial baseline and a pooled variant. The thread width cycles through {2, 4, 7} so widths both below and above the
/// per-partition work-chunk count get exercised.
TEST(WorkerParallelProperty, RandomizedRunsAreBitIdenticalAcrossThreadsAndPipeline) {
  util::Rng meta_rng(20260806);
  const std::size_t widths[] = {2, 4, 7};
  for (int iteration = 0; iteration < 20; ++iteration) {
    IterationPlan plan;
    plan.dataset = (iteration % 2 == 0) ? "cora" : "citeseer";
    plan.scale = 0.06 + 0.04 * meta_rng.uniform();
    plan.seed = meta_rng.next();
    plan.partitions = 1 + static_cast<std::uint32_t>(meta_rng.uniform_u64(3));
    plan.sync = (meta_rng.uniform() < 0.5) ? dist::SyncMode::kGradientAveraging
                                           : dist::SyncMode::kModelAveraging;
    plan.faults = iteration % 2 == 1;
    // Crash recovery needs a surviving peer, so only claim it with >= 2 parts.
    plan.crash = (meta_rng.uniform() < 0.5) && plan.faults && plan.partitions >= 2;
    plan.threads = widths[iteration % 3];

    const auto dataset = data::make_dataset(plan.dataset, plan.scale, plan.seed);
    util::Rng split_rng = util::Rng(plan.seed).split("split");
    const auto split =
        sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);
    const TrainConfig base = plan_config(plan);

    const std::string tag = "iter=" + std::to_string(iteration) + " " + plan.dataset +
                            " parts=" + std::to_string(plan.partitions) +
                            " threads=" + std::to_string(plan.threads) +
                            (plan.faults ? " faults" : "") + (plan.crash ? "+crash" : "");
    SCOPED_TRACE(tag);

    const TrainResult baseline = train_link_prediction(split, dataset.features, base);
    if (plan.crash) {
      EXPECT_GE(baseline.fault.crashes, 1U);
    }

    TrainConfig pooled = base;
    pooled.worker_threads = plan.threads;
    expect_same_result(baseline, train_link_prediction(split, dataset.features, pooled),
                       "pooled");
  }
}

/// Every width on one fixed configuration per sync mode.
TEST(WorkerParallelProperty, FullMatrixOnFixedConfig) {
  const auto dataset = data::make_dataset("cora", 0.1, 77);
  util::Rng split_rng = util::Rng(77).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  for (const auto sync :
       {dist::SyncMode::kGradientAveraging, dist::SyncMode::kModelAveraging}) {
    IterationPlan plan;
    plan.seed = 77;
    plan.partitions = 2;
    plan.sync = sync;
    const TrainConfig base = plan_config(plan);
    const TrainResult baseline = train_link_prediction(split, dataset.features, base);
    for (const std::size_t threads : {2U, 4U, 7U}) {
      TrainConfig variant = base;
      variant.worker_threads = threads;
      expect_same_result(baseline, train_link_prediction(split, dataset.features, variant),
                         "sync=" + std::to_string(static_cast<int>(sync)) +
                             " threads=" + std::to_string(threads));
    }
  }
}

/// The same widths pinned to the scalar kernel backend — the in-process
/// equivalent of a `SPLPG_VEC=scalar` run. The width bit-identity contract
/// must hold on every backend, including the legacy-exact one.
TEST(WorkerParallelProperty, FullMatrixHoldsOnScalarBackend) {
  const tensor::VecBackend previous = tensor::vec_active_backend();
  ASSERT_TRUE(tensor::set_vec_backend(tensor::VecBackend::kScalar));

  const auto dataset = data::make_dataset("citeseer", 0.1, 88);
  util::Rng split_rng = util::Rng(88).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  IterationPlan plan;
  plan.seed = 88;
  plan.partitions = 2;
  const TrainConfig base = plan_config(plan);
  const TrainResult baseline = train_link_prediction(split, dataset.features, base);
  for (const std::size_t threads : {2U, 4U, 7U}) {
    TrainConfig variant = base;
    variant.worker_threads = threads;
    expect_same_result(baseline, train_link_prediction(split, dataset.features, variant),
                       "scalar threads=" + std::to_string(threads));
  }

  tensor::set_vec_backend(previous);
}

}  // namespace
}  // namespace splpg::core
