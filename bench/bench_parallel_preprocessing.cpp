// Parallel preprocessing benchmark: serial vs ThreadPool execution of the
// master-side hot paths (partition sparsification, the per-edge CG
// effective-resistance solves, and evaluation scoring), with a bit-identity
// check per section.
//
// The determinism contract is the point: every parallel path must produce
// the same bytes as its serial counterpart, so the speedup column is pure
// profit. Writes machine-readable results (including the host's hardware
// concurrency — speedups are bounded by the cores actually available) to
// --json for the driver to archive.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "data/generators.hpp"
#include "partition/partitioner.hpp"
#include "sparsify/effective_resistance.hpp"
#include "sparsify/sparsifier.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

struct Section {
  std::string name;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  bool bit_identical = false;

  [[nodiscard]] double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

/// Best-of-`repeats` wall time of `fn` (min filters scheduler noise).
double time_best(int repeats, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const splpg::util::Stopwatch watch;
    fn();
    const double s = watch.seconds();
    if (r == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;

  util::Flags flags(
      "Parallel preprocessing benchmark: serial vs ThreadPool sparsification, "
      "exact ER solves, and evaluation scoring. Each section verifies the "
      "parallel output is bit-identical to serial before timing it.");
  flags.define("dataset", "cora", "dataset for sparsification/evaluation sections");
  flags.define("scale", 0.25, "dataset scale factor in (0, 1]");
  flags.define("seed", static_cast<std::int64_t>(1), "run seed");
  flags.define("alpha", 0.15, "sparsification level L = alpha * |E|");
  flags.define("partitions", static_cast<std::int64_t>(8), "partition count");
  flags.define("threads", static_cast<std::int64_t>(4),
               "ThreadPool width for the parallel variants (0 = hardware)");
  flags.define("repeats", static_cast<std::int64_t>(3), "timing repetitions (best-of)");
  flags.define("er_nodes", static_cast<std::int64_t>(220),
               "node count of the synthetic graph for the exact ER section");
  flags.define("json", "BENCH_parallel.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;
  // A count outside its field's range would wrap when narrowed (a negative
  // one to a huge size, 2^32 to 0), so each is checked before use.
  constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  const std::tuple<const char*, std::int64_t, std::int64_t> counts[] = {
      {"partitions", 1, kU32}, {"threads", 0, kAny}, {"repeats", 1, kInt},
      {"er_nodes", 2, kU32}};
  for (const auto& [name, min, max] : counts) {
    if (!flags.int_in_range(name, min, max)) return 1;
  }

  const std::string dataset_name = flags.get_string("dataset");
  const double scale = flags.get_double("scale");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const double alpha = flags.get_double("alpha");
  const auto num_parts = static_cast<std::uint32_t>(flags.get_int("partitions"));
  const auto threads = static_cast<std::size_t>(flags.get_int("threads"));
  const auto repeats = static_cast<int>(flags.get_int("repeats"));
  const auto er_nodes = static_cast<graph::NodeId>(flags.get_int("er_nodes"));

  const unsigned hardware = std::max(1U, std::thread::hardware_concurrency());
  bench::print_title("PARALLEL PREPROCESSING — SERIAL vs THREADPOOL",
                     "master hot paths; bit-identical outputs at every thread count");
  std::printf("dataset=%s scale=%.2f partitions=%u threads=%zu repeats=%d "
              "hardware_concurrency=%u\n\n",
              dataset_name.c_str(), scale, num_parts, threads, repeats, hardware);
  if (hardware < 2) {
    std::printf("NOTE: this host exposes %u CPU(s); pool speedups are bounded by the\n"
                "available cores, so expect ~1x here and scaling on multi-core hosts.\n\n",
                hardware);
  }

  std::vector<Section> sections;

  // ---- section 1: partitioned sparsification ----
  {
    const auto dataset = data::make_dataset(dataset_name, scale, seed);
    util::Rng part_rng = util::Rng(seed).split("bench_parallel");
    const partition::MetisLikePartitioner partitioner;
    const auto parts = partitioner.partition(dataset.graph, num_parts, part_rng);

    const sparsify::EffectiveResistanceSparsifier serial(alpha, 1);
    const sparsify::EffectiveResistanceSparsifier pooled(alpha, threads);
    auto run_with = [&](const sparsify::Sparsifier& sparsifier) {
      util::Rng rng = util::Rng(seed).split("sparsify");
      return sparsifier.sparsify_partitions(dataset.graph, parts.assignment, num_parts, rng,
                                            nullptr);
    };

    Section section{"sparsify_partitions"};
    const auto a = run_with(serial);
    const auto b = run_with(pooled);
    section.bit_identical = a.size() == b.size();
    for (std::size_t p = 0; section.bit_identical && p < a.size(); ++p) {
      section.bit_identical = a[p].num_edges() == b[p].num_edges();
      for (std::size_t e = 0; section.bit_identical && e < a[p].num_edges(); ++e) {
        section.bit_identical = a[p].edges()[e] == b[p].edges()[e] &&
                                a[p].edge_weights()[e] == b[p].edge_weights()[e];
      }
    }
    section.serial_seconds = time_best(repeats, [&] { (void)run_with(serial); });
    section.parallel_seconds = time_best(repeats, [&] { (void)run_with(pooled); });
    sections.push_back(section);
  }

  // ---- section 2: exact effective resistance on a synthetic graph ----
  {
    data::SbmParams params;
    params.num_nodes = er_nodes;
    params.num_edges = static_cast<graph::EdgeId>(er_nodes) * 8;
    util::Rng rng(seed);
    const auto graph = data::generate_sbm(params, rng);
    util::ThreadPool pool(threads);

    // Per-edge CG solves fan out whole across the pool.
    Section section{"exact_effective_resistance"};
    const auto a = sparsify::exact_effective_resistance(graph);
    const auto b = sparsify::exact_effective_resistance(graph, &pool);
    section.bit_identical = std::equal(a.begin(), a.end(), b.begin(), b.end());
    section.serial_seconds =
        time_best(repeats, [&] { (void)sparsify::exact_effective_resistance(graph); });
    section.parallel_seconds =
        time_best(repeats, [&] { (void)sparsify::exact_effective_resistance(graph, &pool); });
    sections.push_back(section);
  }

  // ---- section 3: evaluation scoring ----
  {
    const auto dataset = data::make_dataset(dataset_name, scale, seed);
    util::Rng split_rng = util::Rng(seed).split("split/" + dataset_name);
    const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

    nn::ModelConfig model_config;
    model_config.in_dim = dataset.features.dim();
    model_config.hidden_dim = 32;
    model_config.num_layers = 2;
    const nn::LinkPredictionModel model(model_config, seed);
    const auto fanouts = model.default_fanouts();

    const core::Evaluator serial(split, dataset.features, fanouts, 0, 128, 7, 1);
    const core::Evaluator pooled(split, dataset.features, fanouts, 0, 128, 7, threads);

    Section section{"evaluator_score_pairs"};
    std::vector<sampling::NodePair> pairs(split.test_neg.begin(), split.test_neg.end());
    const auto a = serial.score_pairs(model, pairs);
    const auto b = pooled.score_pairs(model, pairs);
    section.bit_identical = std::equal(a.begin(), a.end(), b.begin(), b.end());
    section.serial_seconds = time_best(repeats, [&] { (void)serial.score_pairs(model, pairs); });
    section.parallel_seconds =
        time_best(repeats, [&] { (void)pooled.score_pairs(model, pairs); });
    sections.push_back(section);
  }

  // ---- report ----
  std::printf("%-28s %12s %12s %9s %13s\n", "section", "serial (s)", "pool (s)", "speedup",
              "bit_identical");
  bench::print_rule();
  for (const auto& section : sections) {
    std::printf("%-28s %12.4f %12.4f %8.2fx %13s\n", section.name.c_str(),
                section.serial_seconds, section.parallel_seconds, section.speedup(),
                section.bit_identical ? "yes" : "NO");
  }

  bool all_identical = true;
  for (const auto& section : sections) all_identical = all_identical && section.bit_identical;
  std::printf("\nExpected shape: bit_identical=yes everywhere; speedup approaches the\n"
              "thread count on hosts with that many free cores (this host: %u).\n",
              hardware);

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"parallel_preprocessing\",\n"
        << "  \"dataset\": \"" << dataset_name << "\",\n"
        << "  \"scale\": " << scale << ",\n"
        << "  \"alpha\": " << alpha << ",\n"
        << "  \"partitions\": " << num_parts << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"hardware_concurrency\": " << hardware << ",\n"
        << "  \"all_bit_identical\": " << (all_identical ? "true" : "false") << ",\n"
        << "  \"sections\": [\n";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const auto& section = sections[i];
      out << "    {\"name\": \"" << section.name << "\", \"serial_seconds\": "
          << section.serial_seconds << ", \"parallel_seconds\": " << section.parallel_seconds
          << ", \"speedup\": " << section.speedup() << ", \"bit_identical\": "
          << (section.bit_identical ? "true" : "false") << "}"
          << (i + 1 < sections.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
