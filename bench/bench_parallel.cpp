// Pooled-vs-serial benchmark: every hot path that runs on a
// util::ThreadPool, timed serially and on a pool of --threads, with a
// bit-identity check per section.
//
// Master side: partition sparsification, the per-edge CG effective-resistance
// solves, and evaluation scoring. Worker side: chunk-parallel neighbor
// sampling, the row-blocked forward/backward kernels, and whole training
// epochs of the one centralized worker at worker_threads N against 1 (the
// configuration perfbench runs a worker pool in; its SpLPG workers each
// take one CPU, so a pool per worker would only oversubscribe).
//
// The determinism contract is the point: every pooled path must produce the
// same bytes as its serial counterpart, and the bench exits 1 if any section
// differs. Each section records wall and process-CPU seconds of the best of
// --repeats runs: a pooled run burns about the serial CPU across more
// threads, so cpu/wall shows the parallelism reached, and the host's
// hardware_concurrency bounds any speedup. Results land in --json
// (BENCH_parallel.json).
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "data/generators.hpp"
#include "nn/model.hpp"
#include "partition/partitioner.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sparsify/effective_resistance.hpp"
#include "sparsify/sparsifier.hpp"
#include "tensor/parallel.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace splpg;

struct Section {
  std::string name;
  std::string side;  // "master" or "worker"
  bool bit_identical = false;
  bench::Timing serial;
  bench::Timing pooled;

  [[nodiscard]] double speedup() const {
    return pooled.wall_seconds > 0.0 ? serial.wall_seconds / pooled.wall_seconds : 0.0;
  }
};

/// What every section reads: the flags, and one dataset with its split.
struct Setup {
  std::uint64_t seed = 0;
  double alpha = 0.0;
  std::uint32_t partitions = 0;
  std::size_t threads = 0;
  int repeats = 0;
  graph::NodeId er_nodes = 0;
  std::uint32_t epochs = 0;
  std::uint32_t max_batches = 0;
  std::size_t hidden = 0;
  std::uint32_t layers = 0;
  data::Dataset dataset;
  sampling::LinkSplit split;
};

/// The section's record: `serial` and `pooled` timed, best of --repeats.
Section timed(const char* name, const char* side, bool bit_identical, const Setup& s,
              const std::function<void()>& serial, const std::function<void()>& pooled) {
  return {name, side, bit_identical, bench::time_best(s.repeats, serial),
          bench::time_best(s.repeats, pooled)};
}

bool same_matrix(const tensor::Matrix& a, const tensor::Matrix& b) {
  return a.same_shape(b) && std::ranges::equal(a.data(), b.data());
}

bool same_graph(const sampling::ComputationGraph& a, const sampling::ComputationGraph& b) {
  if (a.blocks.size() != b.blocks.size()) return false;
  for (std::size_t l = 0; l < a.blocks.size(); ++l) {
    const auto& x = a.blocks[l];
    const auto& y = b.blocks[l];
    if (x.src_nodes != y.src_nodes || x.dst_count != y.dst_count ||
        x.edge_src != y.edge_src || x.edge_dst != y.edge_dst ||
        x.edge_weight != y.edge_weight) {
      return false;
    }
  }
  return true;
}

bool same_result(const core::TrainResult& a, const core::TrainResult& b) {
  if (a.history.size() != b.history.size()) return false;
  for (std::size_t e = 0; e < a.history.size(); ++e) {
    if (a.history[e].mean_loss != b.history[e].mean_loss ||
        a.history[e].comm_gigabytes != b.history[e].comm_gigabytes) {
      return false;
    }
  }
  if (a.test_hits != b.test_hits || a.test_auc != b.test_auc ||
      a.comm.total_bytes() != b.comm.total_bytes()) {
    return false;
  }
  return std::ranges::equal(a.model->parameters(), b.model->parameters(),
                            [](const auto& x, const auto& y) {
                              return same_matrix(x.value(), y.value());
                            });
}

nn::ModelConfig model_config(const Setup& s) {
  nn::ModelConfig config;
  config.in_dim = s.dataset.features.dim();
  config.hidden_dim = s.hidden;
  config.num_layers = s.layers;
  return config;
}

// ---- master side ----

Section sparsify_partitions(const Setup& s) {
  util::Rng part_rng = util::Rng(s.seed).split("bench_parallel");
  const partition::MetisLikePartitioner partitioner;
  const auto parts = partitioner.partition(s.dataset.graph, s.partitions, part_rng);
  const sparsify::EffectiveResistanceSparsifier serial(s.alpha, 1);
  const sparsify::EffectiveResistanceSparsifier pooled(s.alpha, s.threads);
  const auto run_with = [&](const sparsify::Sparsifier& sparsifier) {
    util::Rng rng = util::Rng(s.seed).split("sparsify");
    return sparsifier.sparsify_partitions(s.dataset.graph, parts.assignment, s.partitions, rng,
                                          nullptr);
  };
  const auto a = run_with(serial);
  const auto b = run_with(pooled);
  const bool same = std::ranges::equal(a, b, [](const auto& x, const auto& y) {
    return std::ranges::equal(x.edges(), y.edges()) &&
           std::ranges::equal(x.edge_weights(), y.edge_weights());
  });
  return timed("sparsify_partitions", "master", same, s, [&] { (void)run_with(serial); },
               [&] { (void)run_with(pooled); });
}

/// Per-edge CG solves fan out whole across the pool.
Section exact_effective_resistance(const Setup& s) {
  data::SbmParams params;
  params.num_nodes = s.er_nodes;
  params.num_edges = static_cast<graph::EdgeId>(s.er_nodes) * 8;
  util::Rng rng(s.seed);
  const auto graph = data::generate_sbm(params, rng);
  util::ThreadPool pool(s.threads);
  const auto solve = [&](util::ThreadPool* p) {
    return sparsify::exact_effective_resistance(graph, p);
  };
  return timed("exact_effective_resistance", "master", solve(nullptr) == solve(&pool), s,
               [&] { (void)solve(nullptr); }, [&] { (void)solve(&pool); });
}

Section evaluator_score_pairs(const Setup& s) {
  const nn::LinkPredictionModel model(model_config(s), s.seed);
  const auto fanouts = model.default_fanouts();
  const core::Evaluator serial(s.split, s.dataset.features, fanouts, 0, 128, 7, 1);
  const core::Evaluator pooled(s.split, s.dataset.features, fanouts, 0, 128, 7, s.threads);
  const std::vector<sampling::NodePair> pairs(s.split.test_neg.begin(), s.split.test_neg.end());
  const bool same = serial.score_pairs(model, pairs) == pooled.score_pairs(model, pairs);
  return timed("evaluator_score_pairs", "master", same, s,
               [&] { (void)serial.score_pairs(model, pairs); },
               [&] { (void)pooled.score_pairs(model, pairs); });
}

// ---- worker side ----

Section neighbor_sampling(const Setup& s) {
  sampling::GraphProvider provider(s.split.train_graph);
  const sampling::NeighborSampler sampler({25, 10});
  util::ThreadPool pool(s.threads);
  std::vector<graph::NodeId> seeds;
  util::Rng seed_rng = util::Rng(s.seed).split("bench_seeds");
  for (int i = 0; i < 512; ++i) {
    seeds.push_back(
        static_cast<graph::NodeId>(seed_rng.uniform_u64(s.split.train_graph.num_nodes())));
  }
  const auto sample = [&](util::ThreadPool* p) {
    util::Rng rng(s.seed);
    return sampler.sample(provider, seeds, rng, p);
  };
  return timed("neighbor_sampling", "worker", same_graph(sample(nullptr), sample(&pool)), s,
               [&] { (void)sample(nullptr); }, [&] { (void)sample(&pool); });
}

/// One loss + backward through the row-blocked kernels on a sampled batch
/// of 256 training pairs.
Section forward_backward(const Setup& s) {
  nn::LinkPredictionModel model(model_config(s), s.seed);
  sampling::GraphProvider provider(s.split.train_graph);
  const sampling::NeighborSampler sampler(model.default_fanouts());
  std::vector<graph::NodeId> seeds;
  std::vector<float> labels;
  for (std::size_t i = 0; i < std::min<std::size_t>(256, s.split.train_pos.size()); ++i) {
    seeds.push_back(s.split.train_pos[i].u);
    seeds.push_back(s.split.train_pos[i].v);
    labels.push_back(static_cast<float>(i % 2));
  }
  util::Rng cg_rng(s.seed);
  const auto cg = sampler.sample(provider, seeds, cg_rng);
  std::unordered_map<graph::NodeId, std::uint32_t> seed_index;
  const auto seed_nodes = cg.seed_nodes();
  for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) seed_index.emplace(seed_nodes[i], i);
  std::vector<nn::PairIndex> pairs;
  for (std::size_t i = 0; i + 1 < seeds.size(); i += 2) {
    pairs.push_back({seed_index.at(seeds[i]), seed_index.at(seeds[i + 1])});
  }

  util::ThreadPool pool(s.threads);
  // One pass on `p` (null = serial); it returns the loss.
  const auto run = [&](util::ThreadPool* p) {
    const tensor::ComputePoolScope scope(p);
    const auto logits = model.score(model.encode(cg, s.dataset.features), pairs);
    auto loss = bce_with_logits(logits, labels);
    model.zero_grad();
    loss.backward();
    return loss.item();
  };
  // The loss and every parameter gradient of one pass.
  const auto result = [&](util::ThreadPool* p) {
    std::vector<tensor::Matrix> out{tensor::Matrix(1, 1, run(p))};
    for (const auto& parameter : model.parameters()) out.push_back(parameter.grad());
    return out;
  };
  const bool same = std::ranges::equal(result(nullptr), result(&pool), same_matrix);
  return timed("forward_backward", "worker", same, s, [&] { (void)run(nullptr); },
               [&] { (void)run(&pool); });
}

/// Whole epochs of centralized training, the one worker running its
/// sampling and kernels on a pool of worker_threads (as perfbench's
/// `centralized` workload does).
Section train_epoch(const Setup& s) {
  core::TrainConfig config;
  config.method = core::Method::kCentralized;
  config.model.hidden_dim = s.hidden;
  config.model.num_layers = s.layers;
  config.epochs = s.epochs;
  config.max_batches_per_epoch = s.max_batches;
  config.batch_size = s.dataset.batch_size;
  config.sync = dist::SyncMode::kGradientAveraging;
  config.seed = s.seed;
  const auto run_with = [&](std::size_t worker_threads) {
    core::TrainConfig c = config;
    c.worker_threads = worker_threads;
    return core::train_link_prediction(s.split, s.dataset.features, c);
  };
  return timed("train_epoch", "worker", same_result(run_with(1), run_with(s.threads)), s,
               [&] { (void)run_with(1); }, [&] { (void)run_with(s.threads); });
}

}  // namespace

int main(int argc, char** argv) {
  using util::Flags;
  Flags flags(
      "Pooled-vs-serial benchmark: master-side sparsification, exact ER "
      "solves and evaluation scoring, and worker-side neighbor sampling, "
      "forward/backward kernels and centralized training epochs, each serial "
      "and on a ThreadPool. Each section verifies the pooled output is "
      "bit-identical to serial before timing it.");
  flags.define("dataset", "cora", "dataset of every section but the exact ER one");
  flags.define("scale", 0.25, "dataset scale factor in (0, 1]");
  flags.define("seed", 1, 0, Flags::kAny, "run seed");
  flags.define("alpha", 0.15, "sparsification level L = alpha * |E|");
  flags.define("partitions", 4, 1, Flags::kU32, "partition count of the sparsification section");
  flags.define("threads", 4, 0, Flags::kAny,
               "ThreadPool width of every pooled variant (0 = hardware)");
  flags.define("repeats", 3, 1, Flags::kInt, "timing repetitions (best-of)");
  flags.define("er_nodes", 220, 2, Flags::kU32,
               "node count of the synthetic graph for the exact ER section");
  flags.define("epochs", 2, 1, Flags::kU32, "epochs of the training-epoch section");
  flags.define("max_batches", 4, 0, Flags::kU32, "mini-batches per epoch (0 = full epoch)");
  flags.define("hidden", 48, 1, Flags::kAny, "hidden dimension");
  flags.define("layers", 2, 1, Flags::kU32, "GNN layers");
  flags.define("json", "BENCH_parallel.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;

  const std::string dataset_name = flags.get_string("dataset");
  const double scale = flags.get_double("scale");
  Setup s;
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  s.alpha = flags.get_double("alpha");
  s.partitions = static_cast<std::uint32_t>(flags.get_int("partitions"));
  s.threads = static_cast<std::size_t>(flags.get_int("threads"));
  s.repeats = static_cast<int>(flags.get_int("repeats"));
  s.er_nodes = static_cast<graph::NodeId>(flags.get_int("er_nodes"));
  s.epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  s.max_batches = static_cast<std::uint32_t>(flags.get_int("max_batches"));
  s.hidden = static_cast<std::size_t>(flags.get_int("hidden"));
  s.layers = static_cast<std::uint32_t>(flags.get_int("layers"));
  s.dataset = data::make_dataset(dataset_name, scale, s.seed);
  util::Rng split_rng = util::Rng(s.seed).split("split/" + dataset_name);
  s.split = sampling::split_edges(s.dataset.graph, sampling::SplitOptions{}, split_rng);

  bench::print_title("POOLED vs SERIAL — MASTER AND WORKER HOT PATHS",
                     "bit-identical outputs at every thread count");
  std::printf("dataset=%s scale=%.2f partitions=%u threads=%zu repeats=%d "
              "hardware_concurrency=%u\n\n",
              dataset_name.c_str(), scale, s.partitions, s.threads, s.repeats,
              std::thread::hardware_concurrency());

  std::printf("%-27s %-6s %10s %10s %10s %10s %8s %s\n", "section", "side", "serial(s)",
              "pool(s)", "ser cpu(s)", "pool cpu(s)", "speedup", "bit_identical");
  bench::print_rule();
  bool all_identical = true;
  std::vector<bench::Json> rows;
  for (const auto measure : {sparsify_partitions, exact_effective_resistance,
                             evaluator_score_pairs, neighbor_sampling, forward_backward,
                             train_epoch}) {
    const Section section = measure(s);
    std::printf("%-27s %-6s %10.4f %10.4f %10.4f %10.4f %7.2fx %s\n", section.name.c_str(),
                section.side.c_str(), section.serial.wall_seconds, section.pooled.wall_seconds,
                section.serial.cpu_seconds, section.pooled.cpu_seconds, section.speedup(),
                section.bit_identical ? "yes" : "NO");
    all_identical = all_identical && section.bit_identical;
    rows.push_back(bench::Json()
                       .set("name", section.name)
                       .set("side", section.side)
                       .set("serial_seconds", section.serial.wall_seconds)
                       .set("parallel_seconds", section.pooled.wall_seconds)
                       .set("serial_cpu_seconds", section.serial.cpu_seconds)
                       .set("parallel_cpu_seconds", section.pooled.cpu_seconds)
                       .set("speedup", section.speedup())
                       .set("bit_identical", section.bit_identical));
  }
  std::printf("\nExpected shape: bit_identical=yes everywhere; pooled cpu ~ serial cpu while\n"
              "pooled wall shrinks toward cpu/threads on hosts with free cores.\n");

  bench::Report report("parallel");
  report.set("dataset", dataset_name)
      .set("scale", scale)
      .set("seed", s.seed)
      .set("alpha", s.alpha)
      .set("partitions", s.partitions)
      .set("threads", s.threads)
      .set("repeats", s.repeats)
      .set("er_nodes", s.er_nodes)
      .set("epochs", s.epochs)
      .set("max_batches", s.max_batches)
      .set("hidden", s.hidden)
      .set("layers", s.layers)
      .set("all_bit_identical", all_identical)
      .set("sections", rows);
  report.write(flags.get_string("json"));
  return all_identical ? 0 : 1;
}
