#include "common.hpp"

#include <cstdio>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "util/logging.hpp"

namespace splpg::bench {

std::optional<Env> parse_env(int argc, char** argv, const std::string& description,
                             const EnvDefaults& defaults) {
  util::Flags flags(description +
                    "\n\nCommon harness flags (shared by all bench binaries). Increase "
                    "--scale/--epochs to approach paper scale; see EXPERIMENTS.md.");
  flags.define("scale", defaults.scale, "dataset scale factor in (0, 1]");
  flags.define("seed", static_cast<std::int64_t>(1), "run seed");
  flags.define("epochs", static_cast<std::int64_t>(defaults.epochs), "training epochs");
  flags.define("hidden", static_cast<std::int64_t>(32), "hidden dimension (paper: 256)");
  flags.define("layers", static_cast<std::int64_t>(3), "GNN layers (paper: 3)");
  flags.define("max_batches", static_cast<std::int64_t>(8),
               "cap on mini-batches per epoch (0 = full epoch)");
  flags.define("alpha", 0.15, "sparsification level L = alpha * |E| (paper: 0.15)");
  flags.define("threads", static_cast<std::int64_t>(1),
               "master ThreadPool width for sparsification/evaluation "
               "(1 = serial, 0 = hardware concurrency); results are "
               "bit-identical at every setting");
  flags.define("worker-threads", static_cast<std::int64_t>(1),
               "per-worker ThreadPool width for neighbor sampling and the "
               "forward/backward kernels (1 = serial, 0 = hardware "
               "concurrency); results are bit-identical at every setting");
  flags.define("datasets", defaults.datasets,
               "comma-separated dataset names, or 'all' for the full Table I list");
  flags.define("partitions", defaults.partitions, "comma-separated partition counts");
  flags.define("dataset", "",
               "load problems from this saved dataset directory (io::save_dataset "
               "layout) instead of generating synthetic data");
  flags.define("features", "buffered",
               "feature-store backend when --dataset is set: 'buffered' or 'mmap' "
               "(zero-copy; results are bit-identical)");
  flags.define("storage-faults", false,
               "inject seeded survivable storage faults (ENOSPC, failed rename) "
               "into per-run temp-dir checkpoint writes to exercise the "
               "durability layer; metrics are unchanged");
  flags.define("comm-hook", "none",
               "sync-payload compression hook applied inside the collectives: "
               "none | topk (magnitude top-k with error feedback) | int8 "
               "(per-tensor symmetric quantization)");
  flags.define("topk-fraction", 0.01,
               "fraction of entries the topk hook keeps per tensor, in (0, 1]");
  flags.define("local-steps", static_cast<std::int64_t>(1),
               "sync period H: 1 keeps gradient averaging every batch; any "
               "other value switches to model averaging every H rounds "
               "(local-SGD), 0 = once per epoch");
  if (!flags.parse(argc, argv)) return std::nullopt;
  // A count outside its field's range would wrap when narrowed (a negative
  // one to a huge size, 2^32 epochs to 0), so each is checked before use.
  constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  const std::tuple<const char*, std::int64_t, std::int64_t> counts[] = {
      {"epochs", 1, kU32},      {"hidden", 0, kU32},  {"layers", 0, kU32},
      {"max_batches", 0, kU32}, {"threads", 0, kAny}, {"worker-threads", 0, kAny},
      {"local-steps", 0, kU32}};
  for (const auto& [name, min, max] : counts) {
    if (!flags.int_in_range(name, min, max)) return std::nullopt;
  }
  std::vector<std::int64_t> partitions;
  try {
    partitions = flags.get_int_list("partitions");
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return std::nullopt;
  }
  for (const auto p : partitions) {
    if (p < 1 || p > kU32) {
      std::fprintf(stderr, "error: flag --partitions entries must be in [1, %lld], got %lld\n",
                   static_cast<long long>(kU32), static_cast<long long>(p));
      return std::nullopt;
    }
  }

  Env env;
  env.scale = flags.get_double("scale");
  env.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  env.epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  env.hidden = static_cast<std::uint32_t>(flags.get_int("hidden"));
  env.layers = static_cast<std::uint32_t>(flags.get_int("layers"));
  env.max_batches = static_cast<std::uint32_t>(flags.get_int("max_batches"));
  env.alpha = flags.get_double("alpha");
  env.threads = static_cast<std::size_t>(flags.get_int("threads"));
  env.worker_threads = static_cast<std::size_t>(flags.get_int("worker-threads"));

  const std::string datasets = flags.get_string("datasets");
  if (datasets == "all") {
    for (const auto& config : data::dataset_registry()) env.datasets.push_back(config.name);
  } else {
    std::string token;
    for (const char c : datasets + ",") {
      if (c == ',') {
        if (!token.empty()) env.datasets.push_back(token);
        token.clear();
      } else {
        token.push_back(c);
      }
    }
  }
  for (const auto p : partitions) env.partitions.push_back(static_cast<std::uint32_t>(p));
  env.dataset_dir = flags.get_string("dataset");
  env.storage_faults = flags.get_bool("storage-faults");
  try {
    env.comm_hook = dist::comm_hook_from_string(flags.get_string("comm-hook"));
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return std::nullopt;
  }
  env.topk_fraction = flags.get_double("topk-fraction");
  env.local_steps = static_cast<std::uint32_t>(flags.get_int("local-steps"));
  const std::string backend = flags.get_string("features");
  if (backend == "mmap") {
    env.feature_backend = io::FeatureBackend::kMmap;
  } else if (backend != "buffered") {
    std::fprintf(stderr, "unknown --features backend '%s' (want buffered|mmap)\n",
                 backend.c_str());
    return std::nullopt;
  }
  if (!env.dataset_dir.empty()) {
    // One on-disk dataset replaces the synthetic sweep: every bench section
    // runs on it, keyed by its manifest name.
    env.datasets = {io::load_dataset(env.dataset_dir).name};
  }
  return env;
}

Problem make_problem(const std::string& name, const Env& env) {
  Problem problem;
  if (!env.dataset_dir.empty()) {
    io::DatasetLoadOptions options;
    options.feature_backend = env.feature_backend;
    problem.dataset = io::load_dataset(env.dataset_dir, options);
  } else {
    problem.dataset = data::make_dataset(name, env.scale, env.seed);
  }
  util::Rng rng = util::Rng(env.seed).split("split/" + problem.dataset.name);
  problem.split = sampling::split_edges(problem.dataset.graph, sampling::SplitOptions{}, rng);
  return problem;
}

core::TrainConfig make_config(const Env& env, core::Method method, std::uint32_t partitions,
                              nn::GnnKind gnn) {
  core::TrainConfig config;
  config.method = method;
  config.model.gnn = gnn;
  config.model.predictor = nn::PredictorKind::kMlp;
  config.model.hidden_dim = env.hidden;
  config.model.num_layers = env.layers;
  config.epochs = env.epochs;
  config.num_partitions = partitions;
  config.max_batches_per_epoch = env.max_batches;
  config.alpha = env.alpha;
  config.num_threads = env.threads;
  config.worker_threads = env.worker_threads;
  config.seed = env.seed;
  // The paper reports model averaging over 500 epochs and notes gradient
  // averaging performs "more or less the same" (§V-A). At the harness's
  // reduced epoch budget gradient averaging reaches that common endpoint far
  // faster, so it is the default here; communication accounting (graph data
  // only) is identical under both.
  config.sync = dist::SyncMode::kGradientAveraging;
  config.comm_hook = env.comm_hook;
  config.topk_fraction = static_cast<float>(env.topk_fraction);
  if (env.local_steps != 1) {
    config.sync = dist::SyncMode::kModelAveraging;
    config.local_steps = env.local_steps;
  }
  if (env.storage_faults) {
    // Survivable write faults only (no torn writes — those simulate machine
    // death and are the chaos harness's job): the run self-heals, counting
    // the failures in TrainResult::fault while the metrics stay identical.
    config.checkpoint_dir =
        (std::filesystem::temp_directory_path() /
         ("splpg_bench_ckpt_" + std::to_string(env.seed) + "_" + std::to_string(partitions)))
            .string();
    config.keep_checkpoints = 2;
    io::StorageFault enospc;
    enospc.kind = io::StorageFaultKind::kEnospc;
    enospc.path_contains = "state_epoch_";
    io::StorageFault bad_rename;
    bad_rename.kind = io::StorageFaultKind::kFailedRename;
    bad_rename.path_contains = "model_epoch_";
    bad_rename.skip_matches = 1;
    config.storage_faults.faults = {enospc, bad_rename};
  }
  return config;
}

core::TrainResult run(const Problem& problem, const core::TrainConfig& config) {
  core::TrainConfig effective = config;
  effective.batch_size = problem.dataset.batch_size;
  const auto result =
      core::train_link_prediction(problem.split, problem.dataset.features, effective);
  SPLPG_INFO << problem.dataset.name << " / " << core::to_string(config.method) << " p="
             << (config.method == core::Method::kCentralized ? 1 : config.num_partitions)
             << " " << nn::to_string(config.model.gnn) << ": hits@" << result.eval_k << "="
             << result.test_hits << " auc=" << result.test_auc
             << " comm/epoch=" << result.comm_gigabytes_per_epoch * 1024.0 << " MB ("
             << result.train_seconds << "s)";
  return result;
}

void print_title(const std::string& title, const std::string& paper_reference) {
  std::printf("\n================================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_reference.c_str());
  std::printf("================================================================================\n");
}

void print_rule() {
  std::printf("--------------------------------------------------------------------------------\n");
}

std::string improvement(double ours, double baseline, bool inverted) {
  if (baseline == 0.0) return "   n/a";
  const double rel =
      inverted ? (baseline - ours) / baseline * 100.0 : (ours - baseline) / baseline * 100.0;
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%+6.1f%%", rel);
  return buffer;
}

std::string format_bytes(std::uint64_t bytes) {
  char buffer[32];
  if (bytes >= (1ULL << 30)) {
    std::snprintf(buffer, sizeof(buffer), "%.2f GB", static_cast<double>(bytes) / (1ULL << 30));
  } else if (bytes >= (1ULL << 20)) {
    std::snprintf(buffer, sizeof(buffer), "%.2f MB", static_cast<double>(bytes) / (1ULL << 20));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f KB", static_cast<double>(bytes) / (1ULL << 10));
  }
  return buffer;
}

}  // namespace splpg::bench
