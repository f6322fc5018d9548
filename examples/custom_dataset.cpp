// Custom dataset: the adoption path for users with their own graphs.
//
// Loads a whitespace "u v" edge list (generating one first if none is given),
// attaches features, trains SpLPG, and saves both the dataset directory and
// the trained model checkpoint to disk.
//
//   ./example_custom_dataset [--edges=my_graph.txt] [--feature_dim=64]
#include <cstdio>

#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "io/dataset_io.hpp"
#include "io/edge_list.hpp"
#include "nn/checkpoint.hpp"
#include "sampling/edge_split.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace splpg;

  using util::Flags;
  Flags flags("Train SpLPG on a user-supplied edge-list file");
  flags.define("edges", "", "path to a 'u v' edge list; empty = generate a demo file");
  flags.define("feature_dim", 64, 1, Flags::kU32,
               "random feature dimension (used when the dataset has no features)");
  flags.define("epochs", 6, 1, Flags::kU32, "training epochs");
  flags.define("partitions", 4, 1, Flags::kU32, "workers");
  flags.define("out", "/tmp/splpg_demo",
               "output prefix for the dataset directory and .model file");
  flags.define("seed", 9, 0, Flags::kAny, "seed");
  if (!flags.parse(argc, argv)) return 1;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // 1. Obtain an edge list.
  std::string path = flags.get_string("edges");
  if (path.empty()) {
    path = flags.get_string("out") + ".edges";
    util::Rng rng(seed);
    io::write_edge_list_text_file(path, data::generate_watts_strogatz(800, 8, 0.2, rng));
    std::printf("no --edges given; wrote a demo Watts-Strogatz graph to %s\n", path.c_str());
  }

  // 2. Load and renumber. Relaxed mode merges duplicate edges and drops
  //    self-loops; a malformed line still fails, naming its line number.
  data::Dataset dataset;
  dataset.name = "custom";
  try {
    dataset.graph = io::read_edge_list_text_file(path, {.renumber = true, .strict = false});
  } catch (const io::FormatError& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  const auto& graph = dataset.graph;
  std::printf("loaded %s: %u nodes, %llu edges\n", path.c_str(), graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));

  // 3. Features: replace with your own FeatureStore. The demo derives a
  //    coarse "locality" label per node (ring segments for the Watts-Strogatz
  //    demo graph) so that features correlate with link structure — plain
  //    noise features would leave nothing to learn from.
  util::Rng feat_rng = util::Rng(seed).split("features");
  dataset.communities.resize(graph.num_nodes());
  for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) {
    dataset.communities[v] = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(v) * 24) / graph.num_nodes());
  }
  dataset.features =
      data::generate_features(graph.num_nodes(),
                              static_cast<std::uint32_t>(flags.get_int("feature_dim")),
                              dataset.communities, 1.0, 0.7, feat_rng);

  // 4. Split and train.
  util::Rng split_rng = util::Rng(seed).split("split");
  const auto split = sampling::split_edges(graph, sampling::SplitOptions{}, split_rng);
  core::TrainConfig config;
  config.method = core::Method::kSplpg;
  config.model.hidden_dim = 48;
  config.epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  config.batch_size = 128;
  config.num_partitions = static_cast<std::uint32_t>(flags.get_int("partitions"));
  config.max_batches_per_epoch = 8;
  config.sync = dist::SyncMode::kGradientAveraging;
  config.seed = seed;
  const auto result = core::train_link_prediction(split, dataset.features, config);
  std::printf("trained: Hits@%zu=%.3f AUC=%.3f, comm/epoch=%.2f MB, edge cut=%llu\n",
              result.eval_k, result.test_hits, result.test_auc,
              result.comm_gigabytes_per_epoch * 1024.0,
              static_cast<unsigned long long>(result.partition_edge_cut));

  // 5. Persist artifacts: the dataset directory and the trained model.
  dataset.batch_size = config.batch_size;
  const std::string dataset_dir = flags.get_string("out") + "_dataset";
  const std::string model_path = flags.get_string("out") + ".model";
  io::save_dataset(dataset_dir, dataset);
  nn::save_parameters_file(model_path, *result.model);
  std::printf("saved %s and %s\n", dataset_dir.c_str(), model_path.c_str());

  // 6. Round-trip check: reload both and verify the model scores match.
  const auto reloaded_dataset = io::load_dataset(dataset_dir);
  nn::ModelConfig model_config = config.model;
  model_config.in_dim = reloaded_dataset.features.dim();
  nn::LinkPredictionModel reloaded(model_config, /*seed=*/123);  // different init
  nn::load_parameters_file(model_path, reloaded);
  const core::Evaluator scorer(split, reloaded_dataset.features, reloaded.default_fanouts());
  const std::vector<sampling::NodePair> probe{{0, 1}, {2, 3}};
  const auto original_scores = scorer.score_pairs(*result.model, probe);
  const auto reloaded_scores = scorer.score_pairs(reloaded, probe);
  std::printf("checkpoint round-trip: score(0,1) %.4f == %.4f, score(2,3) %.4f == %.4f\n",
              original_scores[0], reloaded_scores[0], original_scores[1], reloaded_scores[1]);
  return 0;
}
