#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "io/atomic_file.hpp"
#include "tensor/vec.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace splpg::bench {

using util::Flags;

std::optional<Env> parse_env(int argc, char** argv, const std::string& description,
                             const EnvDefaults& defaults) {
  Flags flags(description +
              "\n\nCommon harness flags (shared by all bench binaries). Increase "
              "--scale/--epochs to approach paper scale; see EXPERIMENTS.md.");
  flags.define("scale", defaults.scale, "dataset scale factor in (0, 1]");
  flags.define("seed", 1, 0, Flags::kAny, "run seed");
  flags.define("epochs", defaults.epochs, 1, Flags::kU32, "training epochs");
  flags.define("hidden", 32, 0, Flags::kU32, "hidden dimension (paper: 256)");
  flags.define("layers", 3, 0, Flags::kU32, "GNN layers (paper: 3)");
  flags.define("max_batches", 8, 0, Flags::kU32,
               "cap on mini-batches per epoch (0 = full epoch)");
  flags.define("alpha", 0.15, "sparsification level L = alpha * |E| (paper: 0.15)");
  flags.define("threads", 1, 0, Flags::kAny,
               "master ThreadPool width for sparsification/evaluation "
               "(1 = serial, 0 = hardware concurrency); results are "
               "bit-identical at every setting");
  flags.define("worker-threads", 1, 0, Flags::kAny,
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
  flags.define("local-steps", 1, 0, Flags::kU32,
               "sync period H: 1 keeps gradient averaging every batch; any "
               "other value switches to model averaging every H rounds "
               "(local-SGD), 0 = once per epoch");
  if (!flags.parse(argc, argv)) return std::nullopt;
  std::vector<std::int64_t> partitions;
  try {
    partitions = flags.get_int_list("partitions");
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return std::nullopt;
  }
  for (const auto p : partitions) {
    if (p < 1 || p > Flags::kU32) {
      std::fprintf(stderr, "error: flag --partitions entries must be in [1, %lld], got %lld\n",
                   static_cast<long long>(Flags::kU32), static_cast<long long>(p));
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

Timing time_best(int repeats, const std::function<void()>& fn) {
  Timing best;
  for (int r = 0; r < repeats; ++r) {
    const util::Stopwatch watch;
    const std::clock_t cpu_start = std::clock();  // process CPU time on POSIX
    fn();
    const double wall = watch.seconds();
    if (r == 0 || wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.cpu_seconds = static_cast<double>(std::clock() - cpu_start) / CLOCKS_PER_SEC;
    }
  }
  return best;
}

namespace {

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

template <typename T>
std::string number(T value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  return {buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr};
}

}  // namespace

Json::Json(bool value) : kind_(Kind::kScalar), text_(value ? "true" : "false") {}

Json::Json(float value) : kind_(Kind::kScalar), text_(number(value)) {}

Json::Json(double value) : kind_(Kind::kScalar), text_(number(value)) {}

Json::Json(const char* value) : Json(std::string(value)) {}

Json::Json(const std::string& value) : kind_(Kind::kScalar), text_(quote(value)) {}

Json::Json(std::vector<Json> items) : kind_(Kind::kArray), items_(std::move(items)) {}

Json& Json::set(std::string key, Json value) {
  if (kind_ != Kind::kObject) throw std::logic_error("Json::set on a non-object: " + key);
  keys_.push_back(std::move(key));
  items_.push_back(std::move(value));
  return *this;
}

void Json::print(std::ostream& out, std::size_t depth) const {
  if (kind_ == Kind::kScalar) {
    out << text_;
    return;
  }
  const bool object = kind_ == Kind::kObject;
  const bool flat = std::all_of(items_.begin(), items_.end(),
                                [](const Json& item) { return item.kind_ == Kind::kScalar; });
  const std::string indent(2 * (depth + 1), ' ');
  out << (object ? '{' : '[');
  for (std::size_t i = 0; i < items_.size(); ++i) {
    out << (i == 0 ? "" : flat ? ", " : ",");
    if (!flat) out << '\n' << indent;
    if (object) out << quote(keys_[i]) << ": ";
    items_[i].print(out, depth + 1);
  }
  if (!flat) out << '\n' << std::string(2 * depth, ' ');
  out << (object ? '}' : ']');
}

Report::Report(const std::string& bench) {
  set("bench", bench);
  set("hardware_concurrency", std::thread::hardware_concurrency());
  set("vec_backend", tensor::vec_backend_name(tensor::vec_active_backend()));
  set("build_type", SPLPG_BUILD_TYPE);
}

void Report::write(const std::string& path) const {
  if (path.empty()) return;
  io::write_file_atomic(path, [this](std::ostream& out) {
    print(out);
    out << '\n';
  });
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace splpg::bench
