// Link recommendation: the paper's motivating application. Trains a
// GraphSAGE link predictor with SpLPG on a social-network-like graph
// (Barabási–Albert + community features), then produces top-k friend
// recommendations for a few users by scoring candidate non-edges.
//
//   ./example_link_recommendation [--users=2000] [--topk=5]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "sampling/edge_split.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace splpg;

  using util::Flags;
  Flags flags("Train with SpLPG and recommend links for individual nodes");
  // Below 7 users the 4-links-per-user graph has fewer than the 10 edges
  // split_edges needs.
  flags.define("users", 1500, 7, Flags::kU32, "number of nodes (users)");
  flags.define("topk", 5, 0, Flags::kAny, "recommendations per user");
  flags.define("epochs", 6, 1, Flags::kU32, "training epochs");
  flags.define("seed", 21, 0, Flags::kAny, "seed");
  if (!flags.parse(argc, argv)) return 1;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // Social-network-like graph: preferential attachment + community features.
  util::Rng rng(seed);
  const auto users = static_cast<graph::NodeId>(flags.get_int("users"));
  const auto graph = data::generate_barabasi_albert(users, 4, rng);
  std::vector<std::uint32_t> circles(users);
  for (graph::NodeId v = 0; v < users; ++v) circles[v] = v % 12;  // interest circles
  const auto features = data::generate_features(users, 64, circles, 1.0, 0.6, rng);
  std::printf("social graph: %u users, %llu friendships, max degree %u\n", users,
              static_cast<unsigned long long>(graph.num_edges()), graph.max_degree());

  util::Rng split_rng = util::Rng(seed).split("split");
  const auto split = sampling::split_edges(graph, sampling::SplitOptions{}, split_rng);

  core::TrainConfig config;
  config.method = core::Method::kSplpg;
  config.model.gnn = nn::GnnKind::kSage;
  config.model.hidden_dim = 48;
  config.epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  config.batch_size = 128;
  config.num_partitions = 4;
  config.max_batches_per_epoch = 10;
  config.sync = dist::SyncMode::kGradientAveraging;
  config.seed = seed;
  const auto result = core::train_link_prediction(split, features, config);
  std::printf("trained with SpLPG over 4 workers: test Hits@%zu=%.3f AUC=%.3f, "
              "comm/epoch=%.2f MB\n\n",
              result.eval_k, result.test_hits, result.test_auc,
              result.comm_gigabytes_per_epoch * 1024.0);

  // Recommend: score candidate non-neighbors for a few users with the model
  // the distributed run produced (TrainResult::model is the synchronized
  // worker-0 replica — the artifact a serving system would ship).
  const nn::LinkPredictionModel& model = *result.model;
  const core::Evaluator scorer(split, features, {5, 10, 25});
  util::Rng pick_rng = util::Rng(seed).split("pick");
  const auto topk = static_cast<std::size_t>(flags.get_int("topk"));
  for (int i = 0; i < 3; ++i) {
    const auto user = static_cast<graph::NodeId>(pick_rng.uniform_u64(users));
    // Candidates: 100 distinct random non-neighbors, or all of them when
    // the graph has fewer.
    const std::size_t wanted = std::min<std::size_t>(100, users - 1 - graph.degree(user));
    std::vector<sampling::NodePair> candidates;
    std::vector<bool> tried(users, false);
    while (candidates.size() < wanted) {
      const auto other = static_cast<graph::NodeId>(pick_rng.uniform_u64(users));
      if (other != user && !tried[other] && !graph.has_edge(user, other)) {
        tried[other] = true;
        candidates.push_back({user, other});
      }
    }
    const auto scores = scorer.score_pairs(model, candidates);
    std::vector<std::size_t> order(candidates.size());
    for (std::size_t j = 0; j < order.size(); ++j) order[j] = j;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
    std::printf("user %u (circle %u, %u friends) — top-%zu recommendations:\n", user,
                circles[user], graph.degree(user), topk);
    for (std::size_t j = 0; j < std::min(topk, order.size()); ++j) {
      const auto& pair = candidates[order[j]];
      std::printf("   -> user %-6u score=%+.2f circle=%u%s\n", pair.v, scores[order[j]],
                  circles[pair.v], circles[pair.v] == circles[user] ? "  (same circle)" : "");
    }
  }
  return 0;
}
