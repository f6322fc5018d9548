// Communication-efficient training regimes: sync-payload bytes/epoch,
// accuracy, and wall time for exact sync vs gradient compression (top-k
// sparsification at several levels, int8 quantization) vs local-SGD, each
// under a clean and a faulty cluster profile (transient fetch failures plus
// a mid-run worker crash).
//
// The regime matrix is the PR's scenario sweep: every row is one full
// training run on the same seeded problem, so rows differ ONLY in the
// communication regime (and fault profile). The exit code verifies the
// compression contract — every compressed regime must move strictly fewer
// sync bytes per epoch than the dense exact-sync baseline. Writes
// machine-readable results to --json (BENCH_comm.json).
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/trainer.hpp"
#include "dist/comm_hook.hpp"
#include "util/flags.hpp"

namespace {

struct Regime {
  std::string name;
  splpg::dist::SyncMode sync = splpg::dist::SyncMode::kGradientAveraging;
  splpg::dist::CommHookKind hook = splpg::dist::CommHookKind::kNone;
  float topk_fraction = 0.01F;
  std::uint32_t local_steps = 1;
};

struct Row {
  Regime regime;
  bool faulty = false;
  std::uint64_t sync_bytes = 0;
  double sync_mb_per_epoch = 0.0;
  double comm_gb_per_epoch = 0.0;
  double test_auc = 0.0;
  double test_hits = 0.0;
  double wall_seconds = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;
  using util::Flags;

  Flags flags(
      "Communication-efficient regime sweep: exact sync vs top-k / int8 "
      "gradient compression vs local-SGD (H local steps per global "
      "correction), under clean and faulty cluster profiles. Every row is a "
      "full seeded training run; compressed regimes must move strictly fewer "
      "sync bytes per epoch than dense exact sync (checked by the exit "
      "code).");
  flags.define("dataset", "cora", "dataset for every run");
  flags.define("scale", 0.12, "dataset scale factor in (0, 1]");
  flags.define("seed", 1, 0, Flags::kAny, "run seed");
  flags.define("partitions", 4, 1, Flags::kU32, "worker count");
  flags.define("epochs", 4, 1, Flags::kU32, "training epochs");
  flags.define("max_batches", 6, 0, Flags::kU32,
               "cap on mini-batches per epoch (0 = full epoch)");
  flags.define("hidden", 32, 1, Flags::kU32, "hidden dimension");
  flags.define("layers", 2, 1, Flags::kU32, "GNN layers");
  flags.define("fractions", "0.01,0.05,0.25",
               "top-k sparsification levels swept under exact sync");
  flags.define("fault-rate", 0.02,
               "transient fetch-failure rate of the faulty profile");
  flags.define("json", "BENCH_comm.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;

  const std::string dataset_name = flags.get_string("dataset");
  const double scale = flags.get_double("scale");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto partitions = static_cast<std::uint32_t>(flags.get_int("partitions"));
  const auto epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  const auto max_batches = static_cast<std::uint32_t>(flags.get_int("max_batches"));
  const auto hidden = static_cast<std::uint32_t>(flags.get_int("hidden"));
  const auto layers = static_cast<std::uint32_t>(flags.get_int("layers"));
  const double fault_rate = flags.get_double("fault-rate");

  std::vector<float> fractions;
  {
    std::string token;
    for (const char c : flags.get_string("fractions") + ",") {
      if (c == ',') {
        if (!token.empty()) {
          try {
            fractions.push_back(std::stof(token));
          } catch (const std::exception&) {
            std::fprintf(stderr, "bad --fractions entry '%s'\n", token.c_str());
            return 1;
          }
        }
        token.clear();
      } else {
        token.push_back(c);
      }
    }
  }
  if (fractions.empty()) fractions.push_back(0.05F);

  bench::print_title("COMMUNICATION-EFFICIENT TRAINING REGIMES",
                     "sync-payload bytes/epoch vs accuracy: compression hooks + local-SGD "
                     "under clean and faulty clusters");
  std::printf("dataset=%s scale=%.2f partitions=%u epochs=%u max_batches=%u seed=%llu\n\n",
              dataset_name.c_str(), scale, partitions, epochs, max_batches,
              static_cast<unsigned long long>(seed));

  const auto dataset = data::make_dataset(dataset_name, scale, seed);
  util::Rng split_rng = util::Rng(seed).split("split/" + dataset_name);
  const auto split =
      sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  // The regime matrix. Exact sync sweeps every sparsification level;
  // local-SGD contributes both a dense and a compressed composition to show
  // the two levers stack.
  std::vector<Regime> regimes;
  regimes.push_back({"exact/dense", dist::SyncMode::kGradientAveraging,
                     dist::CommHookKind::kNone, 0.0F, 1});
  regimes.push_back({"exact/int8", dist::SyncMode::kGradientAveraging,
                     dist::CommHookKind::kInt8, 0.0F, 1});
  for (const float fraction : fractions) {
    char name[48];
    std::snprintf(name, sizeof(name), "exact/topk@%.2f", static_cast<double>(fraction));
    regimes.push_back({name, dist::SyncMode::kGradientAveraging,
                       dist::CommHookKind::kTopK, fraction, 1});
  }
  regimes.push_back({"localsgd-H2/dense", dist::SyncMode::kModelAveraging,
                     dist::CommHookKind::kNone, 0.0F, 2});
  regimes.push_back({"localsgd-H8/dense", dist::SyncMode::kModelAveraging,
                     dist::CommHookKind::kNone, 0.0F, 8});
  regimes.push_back({"localsgd-H2/topk@0.05", dist::SyncMode::kModelAveraging,
                     dist::CommHookKind::kTopK, 0.05F, 2});
  regimes.push_back({"localsgd-H8/int8", dist::SyncMode::kModelAveraging,
                     dist::CommHookKind::kInt8, 0.0F, 8});

  const bool can_crash = partitions >= 2 && epochs >= 2;
  auto run_regime = [&](const Regime& regime, bool faulty) {
    core::TrainConfig config;
    config.method = core::Method::kSplpgPlus;  // data transfers, no sparsify cost
    config.model.hidden_dim = hidden;
    config.model.num_layers = layers;
    config.epochs = epochs;
    config.batch_size = dataset.batch_size;
    config.num_partitions = partitions;
    config.max_batches_per_epoch = max_batches;
    config.seed = seed;
    config.sync = regime.sync;
    config.comm_hook = regime.hook;
    if (regime.hook == dist::CommHookKind::kTopK) {
      config.topk_fraction = regime.topk_fraction;
    }
    config.local_steps = regime.local_steps;
    if (faulty) {
      config.faults.transient_fetch_failure_rate = fault_rate;
      if (can_crash) config.faults.crashes.push_back({.worker = 1, .epoch = 2, .batch = 1});
    }
    const auto result = core::train_link_prediction(split, dataset.features, config);

    Row row;
    row.regime = regime;
    row.faulty = faulty;
    row.sync_bytes = result.comm.sync_bytes;
    const double epochs_run =
        result.history.empty() ? 1.0 : static_cast<double>(result.history.size());
    row.sync_mb_per_epoch =
        static_cast<double>(result.comm.sync_bytes) / epochs_run / (1024.0 * 1024.0);
    row.comm_gb_per_epoch = result.comm_gigabytes_per_epoch;
    row.test_auc = result.test_auc;
    row.test_hits = result.test_hits;
    row.wall_seconds = result.train_seconds;
    row.crashes = result.fault.crashes;
    row.recoveries = result.fault.recoveries;
    return row;
  };

  std::vector<Row> rows;
  for (const bool faulty : {false, true}) {
    for (const auto& regime : regimes) rows.push_back(run_regime(regime, faulty));
  }

  std::printf("%-22s %7s %14s %12s %8s %8s %8s %7s\n", "regime", "faults",
              "sync MB/epoch", "vs dense", "auc", "hits", "wall(s)", "crash");
  bench::print_rule();
  double dense_clean_mb = 0.0;
  for (const auto& row : rows) {
    if (!row.faulty && row.regime.name == "exact/dense") {
      dense_clean_mb = row.sync_mb_per_epoch;
    }
  }
  for (const auto& row : rows) {
    const double baseline = dense_clean_mb > 0.0 ? dense_clean_mb : 1.0;
    std::printf("%-22s %7s %14.3f %12s %8.4f %8.4f %8.2f %3llu/%llu\n",
                row.regime.name.c_str(), row.faulty ? "on" : "off", row.sync_mb_per_epoch,
                bench::improvement(row.sync_mb_per_epoch, baseline, true).c_str(),
                row.test_auc, row.test_hits, row.wall_seconds,
                static_cast<unsigned long long>(row.crashes),
                static_cast<unsigned long long>(row.recoveries));
  }

  // Contract check: every compressed/localsgd regime strictly undercuts the
  // dense exact-sync baseline's per-epoch sync payload (clean profile).
  bool reduced = dense_clean_mb > 0.0;
  for (const auto& row : rows) {
    if (row.faulty || row.regime.name == "exact/dense") continue;
    if (row.sync_mb_per_epoch >= dense_clean_mb) {
      std::printf("\nREGRESSION: %s moved %.3f MB/epoch, not below dense %.3f MB/epoch\n",
                  row.regime.name.c_str(), row.sync_mb_per_epoch, dense_clean_mb);
      reduced = false;
    }
  }
  std::printf("\nExpected shape: every compressed / local-SGD row moves strictly fewer sync\n"
              "bytes per epoch than exact/dense, at comparable accuracy; faulty rows recover\n"
              "their crash and stay in the same regime. Contract %s.\n",
              reduced ? "holds" : "VIOLATED");

  std::vector<bench::Json> json_rows;
  for (const auto& row : rows) {
    json_rows.push_back(bench::Json()
                            .set("regime", row.regime.name)
                            .set("sync", dist::to_string(row.regime.sync))
                            .set("hook", dist::to_string(row.regime.hook))
                            .set("topk_fraction", row.regime.topk_fraction)
                            .set("local_steps", row.regime.local_steps)
                            .set("faults", row.faulty)
                            .set("sync_bytes", row.sync_bytes)
                            .set("sync_mb_per_epoch", row.sync_mb_per_epoch)
                            .set("comm_gb_per_epoch", row.comm_gb_per_epoch)
                            .set("test_auc", row.test_auc)
                            .set("test_hits", row.test_hits)
                            .set("wall_seconds", row.wall_seconds)
                            .set("crashes", row.crashes)
                            .set("recoveries", row.recoveries));
  }
  bench::Report report("comm_regimes");
  report.set("dataset", dataset_name)
      .set("scale", scale)
      .set("partitions", partitions)
      .set("epochs", epochs)
      .set("max_batches", max_batches)
      .set("seed", seed)
      .set("fault_rate", fault_rate)
      .set("compression_reduces_sync_bytes", reduced)
      .set("rows", json_rows);
  report.write(flags.get_string("json"));
  return reduced ? 0 : 1;
}
