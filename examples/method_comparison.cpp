// Method comparison: run every distributed training strategy the paper
// studies on one dataset and print an accuracy-vs-communication summary —
// the decision table a practitioner would use to pick a strategy.
//
//   ./example_method_comparison [--dataset=cora] [--scale=0.15] [--partitions=4]
#include <cstdio>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "sampling/edge_split.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace splpg;

  using util::Flags;
  Flags flags("Compare all distributed link-prediction training methods");
  flags.define("dataset", "cora", "dataset name (see data::dataset_registry)");
  flags.define("scale", 0.15, "dataset scale factor");
  flags.define("partitions", 4, 1, Flags::kU32, "number of workers");
  flags.define("epochs", 6, 1, Flags::kU32, "training epochs");
  flags.define("seed", 1, 0, Flags::kAny, "run seed");
  if (!flags.parse(argc, argv)) return 1;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  const auto dataset = data::make_dataset(flags.get_string("dataset"),
                                          flags.get_double("scale"), seed);
  util::Rng split_rng = util::Rng(seed).split("split");
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  std::printf("dataset %s: %u nodes, %llu edges, %u features, %u workers\n\n",
              dataset.name.c_str(), dataset.graph.num_nodes(),
              static_cast<unsigned long long>(dataset.graph.num_edges()),
              dataset.features.dim(),
              static_cast<std::uint32_t>(flags.get_int("partitions")));
  std::printf("%-13s %8s %8s %14s %12s %10s\n", "method", "hits", "auc", "comm/epoch",
              "sparsify(s)", "train(s)");
  std::printf("%s\n", std::string(70, '-').c_str());

  const core::Method methods[] = {
      core::Method::kCentralized,    core::Method::kPsgdPa,     core::Method::kPsgdPaPlus,
      core::Method::kRandomTma,      core::Method::kRandomTmaPlus, core::Method::kSuperTma,
      core::Method::kSuperTmaPlus,   core::Method::kLlcg,       core::Method::kSplpgMinusMinus,
      core::Method::kSplpgMinus,     core::Method::kSplpg,      core::Method::kSplpgPlus,
  };
  for (const auto method : methods) {
    core::TrainConfig config;
    config.method = method;
    config.model.hidden_dim = 48;
    config.epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
    config.batch_size = dataset.batch_size;
    config.num_partitions = static_cast<std::uint32_t>(flags.get_int("partitions"));
    config.max_batches_per_epoch = 8;
    config.sync = dist::SyncMode::kGradientAveraging;
    config.seed = seed;
    const auto result = core::train_link_prediction(split, dataset.features, config);
    std::printf("%-13s %8.3f %8.3f %11.2f MB %12.2f %10.1f\n",
                core::to_string(method).c_str(), result.test_hits, result.test_auc,
                result.comm_gigabytes_per_epoch * 1024.0, result.sparsify_seconds,
                result.train_seconds);
    std::fflush(stdout);
  }
  std::printf("\nReading guide: vanilla methods (psgd_pa/random_tma/super_tma/splpg--/splpg-)\n"
              "move no data but lose accuracy; '+' methods recover accuracy at high cost;\n"
              "splpg recovers accuracy at a fraction of the '+' cost.\n");
  return 0;
}
