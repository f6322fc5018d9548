// Shared harness of the benchmark binaries, compiled once into
// splpg_bench_common.
//
// Every per-table / per-figure binary accepts the same core flags (--scale,
// --seed, --epochs, --datasets, --partitions, --hidden, ...) so the whole
// evaluation can be re-run at larger scale with a single knob. Defaults are
// sized to finish each binary in roughly a minute on one CPU core; the
// paper-scale settings are documented in EXPERIMENTS.md.
//
// The engineering benches time with time_best and write their BENCH_*.json
// through Report.
#pragma once

#include <concepts>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "dist/comm_hook.hpp"
#include "io/dataset_io.hpp"
#include "sampling/edge_split.hpp"
#include "util/flags.hpp"

namespace splpg::bench {

struct Env {
  double scale = 0.12;
  std::uint64_t seed = 1;
  std::uint32_t epochs = 6;
  std::uint32_t hidden = 32;
  std::uint32_t layers = 3;
  std::uint32_t max_batches = 6;
  double alpha = 0.15;
  std::size_t threads = 1;  // master ThreadPool width (1 = serial, 0 = hardware)
  std::size_t worker_threads = 1;  // per-worker pool width (1 = serial, 0 = hardware)
  std::vector<std::string> datasets;
  std::vector<std::uint32_t> partitions;
  /// Non-empty: load every problem from this saved dataset directory (see
  /// io::load_dataset) instead of generating synthetic data; --datasets
  /// names are ignored. Metrics are bit-identical to the in-memory dataset
  /// the directory was saved from.
  std::string dataset_dir;
  io::FeatureBackend feature_backend = io::FeatureBackend::kBuffered;
  /// --storage-faults: exercise the durability layer during the bench run —
  /// checkpoints go to a per-run temp directory with keep-last-2 retention
  /// while a seeded io::StorageFaultPlan injects survivable write faults
  /// (ENOSPC, failed rename). Metrics are unchanged: checkpoint-write
  /// failures are self-healing by contract.
  bool storage_faults = false;
  /// ---- communication-efficient regime knobs ----
  /// --comm-hook: gradient/model compression inside the sync collectives
  /// ("none" | "topk" | "int8"); --topk-fraction: kept fraction for topk;
  /// --local-steps: H != 1 switches the run from gradient averaging to
  /// model averaging every H rounds (0 = once per epoch).
  dist::CommHookKind comm_hook = dist::CommHookKind::kNone;
  double topk_fraction = 0.01;
  std::uint32_t local_steps = 1;
};

struct EnvDefaults {
  std::string datasets = "citeseer,cora,chameleon";
  std::string partitions = "4,8";
  std::uint32_t epochs = 10;
  double scale = 0.12;
};

/// Defines + parses the common flags. Returns nullopt on --help / bad args
/// (caller should exit 0/1 accordingly): a malformed number, a negative
/// count or a --partitions entry below 1 is reported naming the flag,
/// before anything is allocated.
[[nodiscard]] std::optional<Env> parse_env(int argc, char** argv,
                                           const std::string& description,
                                           const EnvDefaults& defaults = {});

struct Problem {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

/// Dataset + 80/10/10 split, deterministic in (name, env.scale, env.seed).
[[nodiscard]] Problem make_problem(const std::string& name, const Env& env);

/// TrainConfig prefilled from the env (SAGE + MLP predictor by default).
[[nodiscard]] core::TrainConfig make_config(const Env& env, core::Method method,
                                            std::uint32_t partitions,
                                            nn::GnnKind gnn = nn::GnnKind::kSage);

/// Runs training with a one-line progress log on stderr.
[[nodiscard]] core::TrainResult run(const Problem& problem, const core::TrainConfig& config);

// ---- output formatting ----

void print_title(const std::string& title, const std::string& paper_reference);
void print_rule();

/// "+41.3%" style relative improvement of `ours` over `baseline`
/// (higher-is-better quantities; pass inverted=true for costs).
[[nodiscard]] std::string improvement(double ours, double baseline, bool inverted = false);

[[nodiscard]] std::string format_bytes(std::uint64_t bytes);

// ---- timing ----

struct Timing {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // process CPU: every thread, pool workers included
};

/// Wall and process-CPU seconds of the fastest (by wall) of `repeats` runs of
/// `fn`; the minimum filters scheduler noise. A pooled run burns about the
/// serial CPU across more threads, so cpu/wall shows the parallelism reached.
[[nodiscard]] Timing time_best(int repeats, const std::function<void()>& fn);

// ---- BENCH reports ----

/// An ordered JSON value: an object (the default), an array, or a scalar.
/// An object prints its fields in the order they were set. Integers print
/// exactly, floating-point numbers in their shortest round-trip form (a
/// non-finite one as null), strings escaped.
class Json {
 public:
  Json() = default;
  Json(bool value);
  Json(float value);
  Json(double value);
  template <std::integral T>
  Json(T value) : kind_(Kind::kScalar), text_(std::to_string(value)) {}
  Json(const char* value);
  Json(const std::string& value);
  Json(std::vector<Json> items);

  /// Appends field `key` to this object.
  Json& set(std::string key, Json value);

  /// Writes the value at nesting `depth`: one holding only scalars on one
  /// line, any other with one field or item per line.
  void print(std::ostream& out, std::size_t depth = 0) const;

 private:
  enum class Kind { kObject, kArray, kScalar };
  Kind kind_ = Kind::kObject;
  std::string text_;               // a scalar's JSON text
  std::vector<std::string> keys_;  // an object's keys, one per item
  std::vector<Json> items_;        // an object's values or an array's items
};

/// A BENCH_*.json file: a JSON object that opens with the stamp every BENCH
/// file carries — bench, hardware_concurrency, vec_backend, build_type.
class Report : public Json {
 public:
  explicit Report(const std::string& bench);

  /// Writes the report to `path` through io::write_file_atomic and prints
  /// "wrote <path>"; an empty path writes nothing. Throws io::IoError naming
  /// the path when it cannot be written.
  void write(const std::string& path) const;
};

}  // namespace splpg::bench
