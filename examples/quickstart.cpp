// Quickstart: train a GraphSAGE link predictor with SpLPG on a synthetic
// citation-style graph and compare it against centralized training.
//
//   ./example_quickstart [--scale=0.2] [--epochs=8] [--partitions=4]
//   ./example_quickstart --export=/tmp/cora_dir          # save the dataset
//   ./example_quickstart --dataset=/tmp/cora_dir         # train on it
//   ./example_quickstart --dataset=/tmp/cora_dir --features=mmap
//   ./example_quickstart --serve                         # + online serving demo
//
// Walks through the full public API: dataset generation (or loading a saved
// dataset directory), edge splitting, training (centralized and SpLPG), and
// evaluation. Training on a saved dataset is bit-identical to training on
// the in-memory original, under both feature-store backends. With --serve,
// the centrally trained model is frozen into the online serving layer and
// queried through the batched, embedding-cached server.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "io/dataset_io.hpp"
#include "nn/serving_model.hpp"
#include "sampling/edge_split.hpp"
#include "serving/server.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace splpg;

  using util::Flags;
  Flags flags("SpLPG quickstart: centralized vs SpLPG on a Cora-like graph");
  flags.define("scale", 0.2, "dataset scale factor in (0, 1]");
  flags.define("epochs", 8, 1, Flags::kU32, "training epochs");
  flags.define("partitions", 4, 1, Flags::kU32, "number of workers/partitions");
  flags.define("hidden", 64, 0, Flags::kAny, "hidden dimension");
  flags.define("seed", 1, 0, Flags::kAny, "run seed");
  flags.define("threads", 1, 0, Flags::kAny,
               "MASTER-side ThreadPool width, i.e. sparsification/evaluation "
               "only (1 = serial, 0 = hardware); results are bit-identical");
  flags.define("worker-threads", 1, 0, Flags::kAny,
               "per-WORKER ThreadPool width: chunked neighbor sampling and "
               "the forward/backward kernels (1 = serial, 0 = hardware); "
               "results are bit-identical");
  flags.define("dataset", "",
               "load the dataset from this directory (written by --export) "
               "instead of generating it");
  flags.define("export", "", "save the generated dataset to this directory and exit");
  flags.define("features", "buffered",
               "feature-store backend for --dataset: 'buffered' or 'mmap' "
               "(zero-copy; results are bit-identical)");
  flags.define("format", "binary", "edge format for --export: 'binary' or 'text'");
  flags.define("checkpoint-dir", "",
               "write per-epoch checkpoints (model + full train state, "
               "atomic-rename durable, self-checksummed) to this directory");
  flags.define("keep-checkpoints", 0, 0, Flags::kU32,
               "keep only the newest K checkpoint epochs (0 = keep all)");
  flags.define("resume", "",
               "resume source: a state_epoch_<e>.bin path, or 'auto' to scan "
               "--checkpoint-dir for the newest checkpoint that validates "
               "(corrupt ones are skipped)");
  flags.define("comm-hook", "none",
               "sync-payload compression inside the collectives: none | topk "
               "(magnitude top-k with error feedback) | int8 (per-tensor "
               "symmetric quantization); determinism is unaffected");
  flags.define("topk-fraction", 0.01,
               "fraction of entries the topk hook keeps per tensor, in (0, 1]");
  flags.define("local-steps", 1, 0, Flags::kU32,
               "sync period H: 1 keeps gradient averaging every batch; any "
               "other value switches to model averaging every H rounds "
               "(local-SGD), 0 = once per epoch");
  flags.define("serve", false,
               "after training, freeze the centralized model into the online "
               "serving layer and score the test edges through the batched, "
               "embedding-cached server (f32 and int8)");
  if (!flags.parse(argc, argv)) return 1;

  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  // 1. Get a Cora-like dataset: either a synthetic one (community-structured
  //    graph + community-correlated features) or a directory saved earlier.
  data::Dataset dataset;
  const std::string dataset_dir = flags.get_string("dataset");
  if (!dataset_dir.empty()) {
    io::DatasetLoadOptions load_options;
    const std::string backend = flags.get_string("features");
    if (backend == "mmap") {
      load_options.feature_backend = io::FeatureBackend::kMmap;
    } else if (backend != "buffered") {
      std::fprintf(stderr, "unknown --features backend '%s' (want buffered|mmap)\n",
                   backend.c_str());
      return 1;
    }
    dataset = io::load_dataset(dataset_dir, load_options);
    std::printf("loaded %s from %s (%s features)\n", dataset.name.c_str(),
                dataset_dir.c_str(), io::to_string(load_options.feature_backend).c_str());
  } else {
    dataset = data::make_dataset("cora", flags.get_double("scale"), seed);
  }
  std::printf("dataset: %s  nodes=%u  edges=%llu  features=%u\n", dataset.name.c_str(),
              dataset.graph.num_nodes(),
              static_cast<unsigned long long>(dataset.graph.num_edges()),
              dataset.features.dim());

  const std::string export_dir = flags.get_string("export");
  if (!export_dir.empty()) {
    const std::string format = flags.get_string("format");
    if (format != "binary" && format != "text") {
      std::fprintf(stderr, "unknown --format '%s' (want binary|text)\n", format.c_str());
      return 1;
    }
    io::save_dataset(export_dir, dataset,
                     format == "text" ? io::EdgeFormat::kText : io::EdgeFormat::kBinary);
    std::printf("saved dataset to %s (%s edges); train on it with --dataset=%s\n",
                export_dir.c_str(), format.c_str(), export_dir.c_str());
    return 0;
  }

  // 2. 80/10/10 edge split with fixed global-uniform eval negatives.
  util::Rng split_rng = util::Rng(seed).split("split");
  const sampling::LinkSplit split =
      sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);
  std::printf("split: train=%zu val=%zu test=%zu (neg x3)\n", split.train_pos.size(),
              split.val_pos.size(), split.test_pos.size());

  // 3. Configure a 3-layer GraphSAGE with a 3-layer MLP edge predictor.
  core::TrainConfig config;
  config.model.gnn = nn::GnnKind::kSage;
  config.model.predictor = nn::PredictorKind::kMlp;
  config.model.hidden_dim = static_cast<std::size_t>(flags.get_int("hidden"));
  config.epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  config.batch_size = dataset.batch_size;
  config.num_partitions = static_cast<std::uint32_t>(flags.get_int("partitions"));
  config.sync = dist::SyncMode::kGradientAveraging;
  // Communication-efficient regime knobs: compression hooks run in the
  // barrier's serial section (bit-deterministic), and --local-steps != 1
  // trades sync frequency for local progress (model averaging every H rounds).
  try {
    config.comm_hook = dist::comm_hook_from_string(flags.get_string("comm-hook"));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  config.topk_fraction = static_cast<float>(flags.get_double("topk-fraction"));
  const auto local_steps = static_cast<std::uint32_t>(flags.get_int("local-steps"));
  if (local_steps != 1) {
    config.sync = dist::SyncMode::kModelAveraging;
    config.local_steps = local_steps;
  }
  config.num_threads = static_cast<std::size_t>(flags.get_int("threads"));
  // --threads above is master-side only; the worker-side hot paths have
  // their own pool knob (every combination is bit-identical).
  config.worker_threads = static_cast<std::size_t>(flags.get_int("worker-threads"));
  config.seed = seed;
  // Durability knobs: on-disk checkpoints (atomic + checksummed), keep-last-K
  // retention, and crash recovery via --resume=auto.
  const std::string checkpoint_root = flags.get_string("checkpoint-dir");
  config.keep_checkpoints = static_cast<std::uint32_t>(flags.get_int("keep-checkpoints"));
  config.resume_from = flags.get_string("resume");
  if (config.resume_from == "auto" && checkpoint_root.empty()) {
    std::fprintf(stderr, "--resume=auto requires --checkpoint-dir\n");
    return 1;
  }

  // 4. Train centralized (the accuracy reference), then SpLPG. Each method
  //    checkpoints into its own subdirectory so --resume=auto recovers the
  //    matching run instead of the other method's final state.
  std::shared_ptr<nn::LinkPredictionModel> centralized_model;
  for (const core::Method method : {core::Method::kCentralized, core::Method::kSplpg}) {
    config.method = method;
    if (!checkpoint_root.empty()) {
      config.checkpoint_dir = checkpoint_root + "/" + core::to_string(method);
    }
    const core::TrainResult result = core::train_link_prediction(split, dataset.features, config);
    if (result.resumed_from_epoch > 0) {
      std::printf("%-12s  resumed from epoch %u checkpoint\n",
                  core::to_string(method).c_str(), result.resumed_from_epoch);
    }
    std::printf(
        "%-12s  Hits@%zu=%.3f  AUC=%.3f  comm/epoch=%.3f MB  sync/epoch=%.3f MB  "
        "sparsify=%.2fs  train=%.1fs\n",
        core::to_string(method).c_str(), result.eval_k, result.test_hits, result.test_auc,
        result.comm_gigabytes_per_epoch * 1024.0, result.sync_gigabytes_per_epoch * 1024.0,
        result.sparsify_seconds, result.train_seconds);
    if (method == core::Method::kCentralized) centralized_model = result.model;
  }

  // 5. Optional: freeze the centralized model into the online serving layer
  //    and answer link queries through the batched, embedding-cached server.
  //    Serving uses exact full-neighborhood inference, so every score is a
  //    pure function of (frozen weights, graph, features, pair) — replies are
  //    bit-identical whatever the cache size, batching, or client count.
  if (flags.get_bool("serve") && centralized_model != nullptr) {
    std::vector<sampling::NodePair> queries;
    for (const auto& edge : split.test_pos) queries.push_back({edge.u, edge.v});

    const nn::ServingModel frozen(*centralized_model, split.train_graph, dataset.features);
    serving::ServingServer server(frozen);
    const auto cold = server.score_pairs(queries);   // cold cache: every miss encodes
    const auto warm = server.score_pairs(queries);   // warm cache: pure row copies
    const auto stats = server.cache_stats();
    float max_delta = 0.0F;
    for (std::size_t i = 0; i < cold.scores.size(); ++i) {
      max_delta = std::max(max_delta, std::abs(cold.scores[i] - warm.scores[i]));
    }
    std::printf(
        "serve (f32)   %zu test-edge queries: cache %llu hits / %llu misses, "
        "cold-vs-warm max |delta| = %g (bit-identical by contract)\n",
        queries.size(), static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses), max_delta);

    nn::ServingOptions int8_options;
    int8_options.int8_weights = true;
    int8_options.int8_embeddings = true;
    const nn::ServingModel quantized(*centralized_model, split.train_graph,
                                     dataset.features, int8_options);
    serving::ServingServer int8_server(quantized);
    const auto int8_reply = int8_server.score_pairs(queries);
    float max_int8_delta = 0.0F;
    for (std::size_t i = 0; i < cold.scores.size(); ++i) {
      max_int8_delta =
          std::max(max_int8_delta, std::abs(cold.scores[i] - int8_reply.scores[i]));
    }
    std::printf(
        "serve (int8)  rows %zu -> %zu bytes, weight bound %.2e, "
        "max |int8 - f32| = %g\n",
        frozen.row_bytes(), quantized.row_bytes(), quantized.weight_error_bound(),
        max_int8_delta);
  }
  return 0;
}
