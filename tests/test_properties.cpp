// Parameterized property sweeps across module boundaries:
//  * CsrGraph structural invariants on random graphs of many shapes
//  * every training Method runs end-to-end and honors its communication
//    contract (vanilla methods transfer nothing; sharing methods do)
//  * sparsifier invariants across alpha levels and generators
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <set>
#include <string>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "sampling/edge_split.hpp"
#include "sparsify/sparsifier.hpp"

namespace splpg {
namespace {

using graph::CsrGraph;
using graph::NodeId;
using util::Rng;

// ---------------------------------------------------------------------------
// CsrGraph invariants across generators and sizes.

struct GraphCase {
  std::string generator;
  NodeId nodes;
  graph::EdgeId edges_or_k;
};

// Without this, gtest prints GraphCase as raw object bytes (the string's
// heap pointer and uninitialized padding), so the listed test names change
// from one process to the next.
void PrintTo(const GraphCase& params, std::ostream* os) {
  *os << params.generator << "(" << params.nodes << "," << params.edges_or_k << ")";
}

class GraphInvariants : public ::testing::TestWithParam<GraphCase> {
 protected:
  static CsrGraph make(const GraphCase& params) {
    Rng rng(99);
    if (params.generator == "sbm") {
      data::SbmParams sbm;
      sbm.num_nodes = params.nodes;
      sbm.num_edges = params.edges_or_k;
      sbm.num_communities = 5;
      return data::generate_sbm(sbm, rng);
    }
    if (params.generator == "ba") {
      return data::generate_barabasi_albert(params.nodes,
                                            static_cast<std::uint32_t>(params.edges_or_k), rng);
    }
    if (params.generator == "er") {
      return data::generate_erdos_renyi(params.nodes, params.edges_or_k, rng);
    }
    return data::generate_watts_strogatz(params.nodes,
                                         static_cast<std::uint32_t>(params.edges_or_k), 0.3,
                                         rng);
  }
};

TEST_P(GraphInvariants, StructureIsConsistent) {
  const CsrGraph graph = make(GetParam());

  // Degree sum == 2|E|; adjacency symmetric, sorted, self-loop free,
  // duplicate free; edge list canonical and consistent with has_edge.
  graph::EdgeId degree_sum = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto neighbors = graph.neighbors(v);
    degree_sum += neighbors.size();
    EXPECT_TRUE(std::is_sorted(neighbors.begin(), neighbors.end()));
    EXPECT_EQ(std::adjacent_find(neighbors.begin(), neighbors.end()), neighbors.end());
    for (const NodeId w : neighbors) {
      EXPECT_NE(w, v);
      EXPECT_TRUE(graph.has_edge(v, w));
      EXPECT_TRUE(graph.has_edge(w, v));
    }
  }
  EXPECT_EQ(degree_sum, 2 * graph.num_edges());

  std::set<graph::Edge> canonical;
  for (const auto& edge : graph.edges()) {
    EXPECT_LT(edge.u, edge.v);
    EXPECT_TRUE(canonical.insert(edge).second);
  }
  EXPECT_EQ(canonical.size(), graph.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    Generators, GraphInvariants,
    ::testing::Values(GraphCase{"sbm", 100, 400}, GraphCase{"sbm", 1000, 8000},
                      GraphCase{"ba", 200, 3}, GraphCase{"ba", 2000, 5},
                      GraphCase{"er", 150, 1000}, GraphCase{"er", 64, 64},
                      GraphCase{"ws", 120, 6}, GraphCase{"ws", 500, 10}),
    [](const auto& info) {
      return info.param.generator + "_" + std::to_string(info.param.nodes);
    });

// ---------------------------------------------------------------------------
// Every method trains end-to-end and honors its communication contract.

struct MethodProblem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

const MethodProblem& method_problem() {
  static const MethodProblem instance = [] {
    MethodProblem p;
    p.dataset = data::make_dataset("citeseer", 0.1, 23);
    util::Rng rng = util::Rng(23).split("split");
    p.split = sampling::split_edges(p.dataset.graph, sampling::SplitOptions{}, rng);
    return p;
  }();
  return instance;
}

class EveryMethod : public ::testing::TestWithParam<core::Method> {};

TEST_P(EveryMethod, TrainsAndHonorsCommContract) {
  const core::Method method = GetParam();
  core::TrainConfig config;
  config.method = method;
  config.model.hidden_dim = 16;
  config.model.num_layers = 2;
  config.epochs = 2;
  config.batch_size = 64;
  config.num_partitions = 3;
  config.max_batches_per_epoch = 2;
  config.sync = dist::SyncMode::kGradientAveraging;
  config.seed = 23;

  const auto result = core::train_link_prediction(method_problem().split,
                                                  method_problem().dataset.features, config);
  EXPECT_EQ(result.history.size(), 2U);
  EXPECT_NE(result.model, nullptr);
  EXPECT_GE(result.test_auc, 0.0);

  const auto policy = core::worker_policy(method);
  const bool expects_transfer = method != core::Method::kCentralized &&
                                policy.remote != dist::RemoteAdjacency::kNone;
  if (expects_transfer) {
    EXPECT_GT(result.comm.total_bytes(), 0U) << core::to_string(method);
  } else {
    EXPECT_EQ(result.comm.total_bytes(), 0U) << core::to_string(method);
  }
  if (core::uses_sparsification(method)) {
    EXPECT_GT(result.sparsify_seconds, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(result.sparsify_seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EveryMethod,
    ::testing::Values(core::Method::kCentralized, core::Method::kPsgdPa,
                      core::Method::kPsgdPaPlus, core::Method::kRandomTma,
                      core::Method::kRandomTmaPlus, core::Method::kSuperTma,
                      core::Method::kSuperTmaPlus, core::Method::kLlcg, core::Method::kSplpg,
                      core::Method::kSplpgPlus, core::Method::kSplpgMinus,
                      core::Method::kSplpgMinusMinus),
    [](const auto& info) {
      std::string name = core::to_string(info.param);
      for (char& c : name) {
        if (c == '+') c = 'P';
        if (c == '-') c = 'M';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Sparsifier invariants across alpha and sparsifier kind.

class SparsifierSweep
    : public ::testing::TestWithParam<std::pair<sparsify::SparsifierKind, double>> {};

TEST_P(SparsifierSweep, InvariantsHold) {
  const auto [kind, alpha] = GetParam();
  data::SbmParams params;
  params.num_nodes = 300;
  params.num_edges = 2400;
  Rng rng(7);
  const CsrGraph graph = data::generate_sbm(params, rng);

  sparsify::SparsifyConfig config;
  config.alpha = alpha;
  const auto sparsifier = sparsify::make_sparsifier(kind, config);
  Rng sparsify_rng(8);
  sparsify::SparsifyStats stats;
  const CsrGraph sparse = sparsifier->sparsify(graph, sparsify_rng, &stats);

  // Node set preserved; edges are a subset; weights positive.
  EXPECT_EQ(sparse.num_nodes(), graph.num_nodes());
  EXPECT_LE(sparse.num_edges(), graph.num_edges());
  for (const auto& edge : sparse.edges()) EXPECT_TRUE(graph.has_edge(edge.u, edge.v));

  // Draws = L: a kept edge's weight is (times drawn) / (L * p_e), so
  // w_e * L * p_e is a whole number of draws, and the draws add up to L.
  const auto draws = static_cast<std::uint64_t>(
      std::ceil(alpha * static_cast<double>(graph.num_edges())));
  const auto importance = [&](const graph::Edge& edge) {
    return kind == sparsify::SparsifierKind::kUniform
               ? 1.0
               : 1.0 / graph.degree(edge.u) + 1.0 / graph.degree(edge.v);
  };
  double total_importance = 0.0;
  for (const auto& edge : graph.edges()) total_importance += importance(edge);
  std::uint64_t counted = 0;
  for (std::size_t e = 0; e < sparse.num_edges(); ++e) {
    const double times = sparse.edge_weights()[e] * static_cast<double>(draws) *
                         importance(sparse.edges()[e]) / total_importance;
    EXPECT_NEAR(times, std::round(times), 1e-3);
    counted += static_cast<std::uint64_t>(std::llround(times));
  }
  EXPECT_EQ(counted, draws);
  EXPECT_EQ(stats.kept_edges, sparse.num_edges());
  double total_weight = 0.0;
  for (const float w : sparse.edge_weights()) {
    EXPECT_GT(w, 0.0F);
    total_weight += w;
  }
  // Unbiasedness: E[total weight] = |E| for both kinds.
  EXPECT_NEAR(total_weight, static_cast<double>(graph.num_edges()),
              0.25 * static_cast<double>(graph.num_edges()));
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndAlphas, SparsifierSweep,
    ::testing::Values(std::pair{sparsify::SparsifierKind::kEffectiveResistance, 0.05},
                      std::pair{sparsify::SparsifierKind::kEffectiveResistance, 0.15},
                      std::pair{sparsify::SparsifierKind::kEffectiveResistance, 0.5},
                      std::pair{sparsify::SparsifierKind::kUniform, 0.05},
                      std::pair{sparsify::SparsifierKind::kUniform, 0.15},
                      std::pair{sparsify::SparsifierKind::kUniform, 0.5}));

}  // namespace
}  // namespace splpg
