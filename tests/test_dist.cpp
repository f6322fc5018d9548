// Tests for the dist module: comm metering (per-batch dedup), master store
// halo construction, worker-view locality/metering semantics for every
// method policy, and deterministic gradient/model synchronization.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/method.hpp"
#include "data/generators.hpp"
#include "dist/comm_meter.hpp"
#include "dist/fault.hpp"
#include "dist/master_store.hpp"
#include "dist/retry.hpp"
#include "dist/sync.hpp"
#include "dist/worker_view.hpp"
#include "nn/model.hpp"
#include "partition/partitioner.hpp"
#include "sparsify/sparsifier.hpp"

namespace splpg::dist {
namespace {

using graph::CsrGraph;
using graph::GraphBuilder;
using graph::NodeId;
using util::Rng;

/// Two-community graph partitioned by hand:
///   part 0: nodes 0,1,2 (triangle); part 1: nodes 3,4,5 (triangle);
///   cross edges 2-3 and 0-5.
struct Fixture {
  CsrGraph graph;
  graph::FeatureStore features;
  partition::PartitionResult parts;

  Fixture() {
    GraphBuilder builder(6);
    builder.add_edge(0, 1);
    builder.add_edge(1, 2);
    builder.add_edge(0, 2);
    builder.add_edge(3, 4);
    builder.add_edge(4, 5);
    builder.add_edge(3, 5);
    builder.add_edge(2, 3);
    builder.add_edge(0, 5);
    graph = builder.build();
    features = graph::FeatureStore(6, 4);
    for (NodeId v = 0; v < 6; ++v) features.row(v)[0] = static_cast<float>(v);
    parts.num_parts = 2;
    parts.assignment = {0, 0, 0, 1, 1, 1};
  }

  [[nodiscard]] MasterStore make_store() const {
    return MasterStore(graph, &features, parts);
  }
};

TEST(CommMeter, ChargesOncePerBatch) {
  CommMeter meter;
  meter.begin_batch();
  EXPECT_TRUE(meter.charge_structure(7, 100));
  EXPECT_FALSE(meter.charge_structure(7, 100));  // dedup within batch
  EXPECT_TRUE(meter.charge_features(7, 64));     // features are separate
  EXPECT_FALSE(meter.charge_features(7, 64));
  EXPECT_EQ(meter.stats().structure_bytes, 100U);
  EXPECT_EQ(meter.stats().feature_bytes, 64U);
  EXPECT_EQ(meter.stats().structure_fetches, 1U);

  meter.begin_batch();  // new batch -> same node charges again
  EXPECT_TRUE(meter.charge_structure(7, 100));
  EXPECT_EQ(meter.stats().structure_bytes, 200U);
  EXPECT_EQ(meter.stats().batches, 2U);
}

TEST(CommMeter, DrainResetsCounters) {
  CommMeter meter;
  meter.begin_batch();
  meter.charge_features(1, 10);
  const CommStats drained = meter.drain();
  EXPECT_EQ(drained.feature_bytes, 10U);
  EXPECT_EQ(meter.stats().feature_bytes, 0U);
  EXPECT_EQ(meter.stats().batches, 0U);
}

TEST(CommStats, AccumulateAndConvert) {
  CommStats a;
  a.structure_bytes = 1024ULL * 1024 * 1024;
  CommStats b;
  b.feature_bytes = 1024ULL * 1024 * 1024;
  a += b;
  EXPECT_DOUBLE_EQ(a.total_gigabytes(), 2.0);
}

TEST(MasterStore, HaloIsOneHopNeighborsOutsidePart) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  // Part 0 halo: nodes 3 (via 2-3) and 5 (via 0-5).
  EXPECT_TRUE(store.in_halo(0, 3));
  EXPECT_TRUE(store.in_halo(0, 5));
  EXPECT_FALSE(store.in_halo(0, 4));
  EXPECT_FALSE(store.in_halo(0, 0));  // core, not halo
  // Part 1 halo: nodes 2 and 0.
  EXPECT_TRUE(store.in_halo(1, 2));
  EXPECT_TRUE(store.in_halo(1, 0));
  EXPECT_FALSE(store.in_halo(1, 1));
}

TEST(MasterStore, PartNodesAndCrossDegree) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  EXPECT_EQ(store.part_nodes(0), (std::vector<NodeId>{0, 1, 2}));
}

TEST(MasterStore, SparsifiedAccessRequiresInstall) {
  const Fixture fixture;
  MasterStore store = fixture.make_store();
  EXPECT_FALSE(store.has_sparsified());
  EXPECT_THROW((void)store.sparsified(0), std::logic_error);
  EXPECT_THROW(store.set_sparsified({}), std::invalid_argument);  // wrong count
}

TEST(WorkerView, FullNeighborsCoreAdjacencyIsFreeAndComplete) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {true, RemoteAdjacency::kNone, NegativeScope::kLocal});
  view.begin_batch();
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  view.append_neighbors(2, neighbors, weights);  // core node with cross edge
  EXPECT_EQ(neighbors, (std::vector<NodeId>{0, 1, 3}));  // cross edge kept
  EXPECT_EQ(view.meter().stats().total_bytes(), 0U);     // and free
}

TEST(WorkerView, InducedCoreAdjacencyFiltersCrossEdges) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {false, RemoteAdjacency::kNone, NegativeScope::kLocal});
  view.begin_batch();
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  view.append_neighbors(2, neighbors, weights);
  EXPECT_EQ(neighbors, (std::vector<NodeId>{0, 1}));  // 3 dropped
  EXPECT_EQ(view.meter().stats().total_bytes(), 0U);
}

TEST(WorkerView, InducedWithFullSharingFetchesCrossRemainder) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {false, RemoteAdjacency::kFull, NegativeScope::kGlobal});
  view.begin_batch();
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  view.append_neighbors(2, neighbors, weights);
  ASSERT_EQ(neighbors.size(), 3U);  // full adjacency after the fetch
  EXPECT_GT(view.meter().stats().structure_bytes, 0U);
}

TEST(WorkerView, RemoteNoneMakesRemoteNodesLeaves) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {true, RemoteAdjacency::kNone, NegativeScope::kLocal});
  view.begin_batch();
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  view.append_neighbors(4, neighbors, weights);  // remote node
  EXPECT_TRUE(neighbors.empty());
  EXPECT_EQ(view.meter().stats().total_bytes(), 0U);
}

TEST(WorkerView, RemoteFullServesAndCharges) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {true, RemoteAdjacency::kFull, NegativeScope::kGlobal});
  view.begin_batch();
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  view.append_neighbors(4, neighbors, weights);
  EXPECT_EQ(neighbors, (std::vector<NodeId>{3, 5}));
  EXPECT_EQ(view.meter().stats().structure_bytes, fixture.graph.structure_bytes(4));
  // Second read in the same batch: served but not re-charged.
  view.append_neighbors(4, neighbors, weights);
  EXPECT_EQ(view.meter().stats().structure_fetches, 1U);
}

TEST(WorkerView, RemoteSparsifiedServesSparsifiedAdjacency) {
  const Fixture fixture;
  MasterStore store = fixture.make_store();
  // Hand-build "sparsified" partitions: part 1 keeps only edge 3-4 (w=2).
  store.set_sparsified({CsrGraph(6, {{0, 1}}, {1.5F}), CsrGraph(6, {{3, 4}}, {2.0F})});

  WorkerView view(store, 0, {true, RemoteAdjacency::kSparsified, NegativeScope::kGlobal});
  view.begin_batch();
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  view.append_neighbors(4, neighbors, weights);  // remote: part 1's sparsified copy
  EXPECT_EQ(neighbors, (std::vector<NodeId>{3}));
  ASSERT_EQ(weights.size(), 1U);
  EXPECT_FLOAT_EQ(weights[0], 2.0F);
  // Charged by the SPARSIFIED degree (1 neighbor), not the full degree (2).
  EXPECT_EQ(view.meter().stats().structure_bytes,
            sizeof(NodeId) + sizeof(graph::EdgeId));
}

TEST(WorkerView, SparsifiedPolicyWithoutInstallThrows) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  EXPECT_THROW(
      WorkerView(store, 0, {true, RemoteAdjacency::kSparsified, NegativeScope::kGlobal}),
      std::logic_error);
}

TEST(WorkerView, GatherFeaturesChargesOnlyNonLocalRows) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {true, RemoteAdjacency::kFull, NegativeScope::kGlobal});
  view.begin_batch();
  // 0, 1 core (free); 3 halo (free under full_neighbors); 4 remote (charged).
  const std::vector<NodeId> nodes{0, 1, 3, 4};
  const auto feats = view.gather_features(nodes);
  EXPECT_EQ(feats.rows(), 4U);
  EXPECT_FLOAT_EQ(feats.at(3, 0), 4.0F);  // correct row content
  EXPECT_EQ(view.meter().stats().feature_fetches, 1U);
  EXPECT_EQ(view.meter().stats().feature_bytes, fixture.features.feature_bytes());
}

TEST(WorkerView, GatherFeaturesInducedChargesHaloToo) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {false, RemoteAdjacency::kFull, NegativeScope::kGlobal});
  view.begin_batch();
  const std::vector<NodeId> nodes{0, 3};  // 3 is halo but NOT local when induced
  (void)view.gather_features(nodes);
  EXPECT_EQ(view.meter().stats().feature_fetches, 1U);
}

TEST(WorkerView, RemoteFeatureWithoutSharingThrows) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  WorkerView view(store, 0, {false, RemoteAdjacency::kNone, NegativeScope::kLocal});
  view.begin_batch();
  const std::vector<NodeId> nodes{4};
  EXPECT_THROW((void)view.gather_features(nodes), std::logic_error);
}

TEST(WorkerView, NegativeCandidateScopes) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  const WorkerView local(store, 1, {false, RemoteAdjacency::kNone, NegativeScope::kLocal});
  EXPECT_EQ(local.negative_candidates(), (std::vector<NodeId>{3, 4, 5}));
  const WorkerView global(store, 1, {false, RemoteAdjacency::kFull, NegativeScope::kGlobal});
  EXPECT_EQ(global.negative_candidates().size(), 6U);
}

TEST(WorkerView, OwnedPositiveEdgesPartitionTheEdgeList) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  const WorkerView w0(store, 0, {true, RemoteAdjacency::kNone, NegativeScope::kLocal});
  const WorkerView w1(store, 1, {true, RemoteAdjacency::kNone, NegativeScope::kLocal});
  const auto edges = fixture.graph.edges();
  const auto owned0 = w0.owned_positive_edges(edges);
  const auto owned1 = w1.owned_positive_edges(edges);
  EXPECT_EQ(owned0.size() + owned1.size(), edges.size());
  for (const auto& e : owned0) EXPECT_EQ(store.part_of(e.u), 0U);
  for (const auto& e : owned1) EXPECT_EQ(store.part_of(e.u), 1U);
}

TEST(MethodPolicies, MatchPaperTable) {
  using core::Method;
  const auto splpg = core::worker_policy(Method::kSplpg);
  EXPECT_TRUE(splpg.full_neighbors);
  EXPECT_EQ(splpg.remote, RemoteAdjacency::kSparsified);
  EXPECT_EQ(splpg.negatives, NegativeScope::kGlobal);

  const auto vanilla = core::worker_policy(Method::kPsgdPa);
  EXPECT_FALSE(vanilla.full_neighbors);
  EXPECT_EQ(vanilla.remote, RemoteAdjacency::kNone);
  EXPECT_EQ(vanilla.negatives, NegativeScope::kLocal);

  const auto plus = core::worker_policy(Method::kRandomTmaPlus);
  EXPECT_EQ(plus.remote, RemoteAdjacency::kFull);
  EXPECT_EQ(plus.negatives, NegativeScope::kGlobal);

  const auto minus = core::worker_policy(Method::kSplpgMinus);
  EXPECT_TRUE(minus.full_neighbors);
  EXPECT_EQ(minus.remote, RemoteAdjacency::kNone);

  EXPECT_TRUE(core::uses_sparsification(Method::kSplpg));
  EXPECT_FALSE(core::uses_sparsification(Method::kSplpgPlus));
  EXPECT_TRUE(core::uses_global_correction(Method::kLlcg));
}

class SyncFixture {
 public:
  explicit SyncFixture(std::uint32_t workers) : context_(workers) {
    nn::ModelConfig config;
    config.in_dim = 4;
    config.hidden_dim = 4;
    config.num_layers = 1;
    config.predictor = nn::PredictorKind::kDot;
    for (std::uint32_t w = 0; w < workers; ++w) {
      replicas_.push_back(std::make_unique<nn::LinkPredictionModel>(config, 99));
      context_.register_replica(w, replicas_.back().get());
    }
  }

  DistContext context_;
  std::vector<std::unique_ptr<nn::LinkPredictionModel>> replicas_;
};

TEST(Sync, GradientAveragingMatchesManualMean) {
  SyncFixture fixture(3);
  // Give each replica's first parameter a distinct constant gradient.
  for (std::uint32_t w = 0; w < 3; ++w) {
    auto& param = fixture.replicas_[w]->parameters()[0];
    param.mutable_grad().resize(param.value().rows(), param.value().cols());
    param.mutable_grad().fill(static_cast<float>(w + 1));
  }
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 3; ++w) {
    threads.emplace_back([&] { fixture.context_.all_reduce_gradients(); });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t w = 0; w < 3; ++w) {
    EXPECT_FLOAT_EQ(fixture.replicas_[w]->parameters()[0].grad().at(0, 0), 2.0F);
  }
}

TEST(Sync, GradientAveragingTreatsMissingAsZero) {
  SyncFixture fixture(2);
  auto& param0 = fixture.replicas_[0]->parameters()[0];
  param0.mutable_grad().resize(param0.value().rows(), param0.value().cols());
  param0.mutable_grad().fill(4.0F);
  // Replica 1 contributes nothing (empty grad).
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&] { fixture.context_.all_reduce_gradients(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_FLOAT_EQ(fixture.replicas_[1]->parameters()[0].grad().at(0, 0), 2.0F);
}

TEST(Sync, ModelAveragingEqualizesReplicas) {
  SyncFixture fixture(2);
  fixture.replicas_[0]->parameters()[0].mutable_value().fill(1.0F);
  fixture.replicas_[1]->parameters()[0].mutable_value().fill(3.0F);
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&] { fixture.context_.average_models(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_FLOAT_EQ(fixture.replicas_[0]->parameters()[0].value().at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(fixture.replicas_[1]->parameters()[0].value().at(0, 0), 2.0F);
}

TEST(Sync, RunSerialExecutesOnce) {
  DistContext context(4);
  nn::ModelConfig config;
  config.in_dim = 2;
  config.num_layers = 1;
  std::vector<std::unique_ptr<nn::LinkPredictionModel>> replicas;
  for (std::uint32_t w = 0; w < 4; ++w) {
    replicas.push_back(std::make_unique<nn::LinkPredictionModel>(config, 1));
    context.register_replica(w, replicas.back().get());
  }
  std::atomic<int> runs{0};
  std::atomic<int> executors{0};
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 4; ++w) {
    threads.emplace_back([&] {
      if (context.run_serial([&] { ++runs; })) ++executors;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(executors.load(), 1);
}

TEST(Sync, ReductionsRunOverSurvivorsAfterLeave) {
  SyncFixture fixture(3);
  fixture.replicas_[0]->parameters()[0].mutable_value().fill(1.0F);
  fixture.replicas_[1]->parameters()[0].mutable_value().fill(3.0F);
  fixture.replicas_[2]->parameters()[0].mutable_value().fill(100.0F);
  fixture.context_.leave(2);
  EXPECT_EQ(fixture.context_.active_workers(), 2U);
  EXPECT_FALSE(fixture.context_.is_active(2));
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&] { fixture.context_.average_models(); });
  }
  for (auto& t : threads) t.join();
  // Survivors averaged over themselves; the dead replica is untouched.
  EXPECT_FLOAT_EQ(fixture.replicas_[0]->parameters()[0].value().at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(fixture.replicas_[1]->parameters()[0].value().at(0, 0), 2.0F);
  EXPECT_FLOAT_EQ(fixture.replicas_[2]->parameters()[0].value().at(0, 0), 100.0F);
}

TEST(Sync, RejoinRestoresFullMembership) {
  SyncFixture fixture(2);
  fixture.context_.leave(1);
  fixture.context_.rejoin(1);
  EXPECT_EQ(fixture.context_.active_workers(), 2U);
  EXPECT_THROW(fixture.context_.rejoin(1), std::logic_error);  // already active
  fixture.replicas_[0]->parameters()[0].mutable_value().fill(0.0F);
  fixture.replicas_[1]->parameters()[0].mutable_value().fill(4.0F);
  std::vector<std::thread> threads;
  for (std::uint32_t w = 0; w < 2; ++w) {
    threads.emplace_back([&] { fixture.context_.average_models(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_FLOAT_EQ(fixture.replicas_[0]->parameters()[0].value().at(0, 0), 2.0F);
}

// ---- fault injection ----

TEST(FaultPlan, ValidateRejectsMalformedPlans) {
  FaultPlan rate;
  rate.transient_fetch_failure_rate = 1.0;  // must stay < 1
  EXPECT_THROW(validate_fault_plan(rate, 2), std::invalid_argument);

  FaultPlan latency;
  latency.fetch_latency_seconds = -1e-6;
  EXPECT_THROW(validate_fault_plan(latency, 2), std::invalid_argument);

  FaultPlan straggler;
  straggler.straggler_slowdown = {1.0, 0.5};  // factors must be >= 1
  EXPECT_THROW(validate_fault_plan(straggler, 2), std::invalid_argument);
  straggler.straggler_slowdown = {2.0};  // wrong arity for 2 workers
  EXPECT_THROW(validate_fault_plan(straggler, 2), std::invalid_argument);

  FaultPlan crash;
  crash.crashes = {{0, 1, 0}};
  EXPECT_THROW(validate_fault_plan(crash, 1), std::invalid_argument);  // no survivor
  crash.crashes = {{0, 1, 0}, {1, 1, 2}};
  EXPECT_THROW(validate_fault_plan(crash, 2), std::invalid_argument);  // all crash in epoch 1
  crash.crashes = {{0, 0, 0}};
  EXPECT_THROW(validate_fault_plan(crash, 2), std::invalid_argument);  // epochs are 1-based
  crash.crashes = {{0, 1, 0}};
  EXPECT_NO_THROW(validate_fault_plan(crash, 2));
}

TEST(FaultInjector, DeterministicPerWorkerStreams) {
  FaultPlan plan;
  plan.transient_fetch_failure_rate = 0.5;
  plan.fetch_latency_seconds = 1e-5;
  plan.straggler_slowdown = {1.0, 4.0};

  FaultInjector a(plan, 7, 2);
  FaultInjector b(plan, 7, 2);
  std::vector<bool> seq_a;
  std::vector<bool> seq_b;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(a.fetch_attempt_fails(0));
    seq_b.push_back(b.fetch_attempt_fails(0));
  }
  EXPECT_EQ(seq_a, seq_b);  // bit-identical for the same seed
  // The failure rate is honored roughly, and worker streams are independent.
  const auto failures = std::count(seq_a.begin(), seq_a.end(), true);
  EXPECT_GT(failures, 16);
  EXPECT_LT(failures, 48);
  std::vector<bool> other;
  for (int i = 0; i < 64; ++i) other.push_back(a.fetch_attempt_fails(1));
  EXPECT_NE(seq_a, other);
  // Straggler factors scale the injected latency.
  EXPECT_DOUBLE_EQ(a.fetch_latency_seconds(0), 1e-5);
  EXPECT_DOUBLE_EQ(a.fetch_latency_seconds(1), 4e-5);

  FaultInjector c(plan, 8, 2);
  std::vector<bool> seq_c;
  for (int i = 0; i < 64; ++i) seq_c.push_back(c.fetch_attempt_fails(0));
  EXPECT_NE(seq_a, seq_c);  // a different seed diverges
}

TEST(FaultInjector, CrashDueMatchesSchedule) {
  FaultPlan plan;
  plan.crashes = {{1, 2, 3}};
  const FaultInjector injector(plan, 1, 2);
  EXPECT_TRUE(injector.crash_due(1, 2, 3));
  EXPECT_FALSE(injector.crash_due(0, 2, 3));
  EXPECT_FALSE(injector.crash_due(1, 1, 3));
  EXPECT_FALSE(injector.crash_due(1, 2, 2));
}

TEST(RetryPolicy, BackoffGrowsAndCaps) {
  // 1 ms doubling per retry, capped at 100 ms, times a jitter in [1, 1.1).
  const std::pair<std::uint32_t, double> cases[] = {
      {1, 1e-3}, {2, 2e-3}, {3, 4e-3}, {7, 64e-3}, {8, 0.1}, {20, 0.1}};
  util::Rng rng(1);
  for (const auto& [retry, base] : cases) {
    const double backoff = RetryPolicy::backoff_seconds(retry, rng);
    EXPECT_GE(backoff, base) << "retry " << retry;
    EXPECT_LT(backoff, 1.1 * base) << "retry " << retry;
  }
}

TEST(WorkerViewFaults, RetriesAreMeteredAndDeterministic) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  FaultPlan plan;
  plan.transient_fetch_failure_rate = 0.4;
  plan.fetch_latency_seconds = 1e-5;

  auto run = [&](std::uint64_t seed) {
    FaultInjector injector(plan, seed, 2);
    WorkerView view(store, 0, {true, RemoteAdjacency::kFull, NegativeScope::kGlobal});
    view.attach_faults(&injector, RetryPolicy{});
    std::vector<NodeId> neighbors;
    std::vector<float> weights;
    for (int batch = 0; batch < 32; ++batch) {
      view.begin_batch();
      for (const NodeId v : {3U, 4U, 5U}) {
        try {
          view.append_neighbors(v, neighbors, weights);
        } catch (const RemoteFetchError& e) {
          EXPECT_EQ(e.part(), 0U);
        }
      }
    }
    return view.meter().drain_faults();
  };

  const FaultStats first = run(11);
  const FaultStats second = run(11);
  EXPECT_GT(first.transient_failures, 0U);
  EXPECT_GT(first.wasted_bytes, 0U);
  EXPECT_GT(first.injected_latency_seconds, 0.0);
  // Every failed attempt is either retried or gives up permanently.
  EXPECT_EQ(first.transient_failures, first.retries + first.permanent_failures);
  // Same seed, same faults — bit-identical stats.
  EXPECT_EQ(first.transient_failures, second.transient_failures);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.permanent_failures, second.permanent_failures);
  EXPECT_EQ(first.wasted_bytes, second.wasted_bytes);
  EXPECT_EQ(first.backoff_seconds, second.backoff_seconds);
}

TEST(WorkerViewFaults, PermanentFailureThrowsAndDegradedModeGoesLocal) {
  const Fixture fixture;
  const MasterStore store = fixture.make_store();
  FaultPlan plan;
  plan.transient_fetch_failure_rate = 0.9;
  FaultInjector injector(plan, 3, 2);
  RetryPolicy retry;
  retry.max_attempts = 1;  // first transient failure is permanent
  WorkerView view(store, 0, {true, RemoteAdjacency::kFull, NegativeScope::kGlobal});
  view.attach_faults(&injector, retry);

  std::vector<NodeId> neighbors;
  std::vector<float> weights;
  bool threw = false;
  for (int batch = 0; batch < 64 && !threw; ++batch) {
    view.begin_batch();
    try {
      view.append_neighbors(4, neighbors, weights);
      neighbors.clear();
      weights.clear();
    } catch (const RemoteFetchError& e) {
      threw = true;
      EXPECT_EQ(e.node(), 4U);
      EXPECT_NE(std::string(e.what()).find("partition"), std::string::npos);
    }
  }
  EXPECT_TRUE(threw);  // rate 0.9: all 64 batches succeeding is impossible at this seed
  EXPECT_GT(view.meter().faults().permanent_failures, 0U);

  // Degraded mode: remote reads answer locally (empty adjacency, zero-filled
  // features), never touch the injector, and don't count the batch.
  const auto stats_before = view.meter().stats();
  const auto faults_before = view.meter().faults();
  view.set_degraded(true);
  view.begin_batch();
  neighbors.clear();
  weights.clear();
  view.append_neighbors(4, neighbors, weights);
  EXPECT_TRUE(neighbors.empty());
  const std::vector<NodeId> degraded_nodes{0, 4};
  const auto feats = view.gather_features(degraded_nodes);
  EXPECT_FLOAT_EQ(feats.at(1, 0), 0.0F);  // remote row zero-filled
  view.set_degraded(false);
  EXPECT_EQ(view.meter().stats().total_bytes(), stats_before.total_bytes());
  EXPECT_EQ(view.meter().stats().batches, stats_before.batches);
  EXPECT_EQ(view.meter().faults().transient_failures, faults_before.transient_failures);
}

}  // namespace
}  // namespace splpg::dist
