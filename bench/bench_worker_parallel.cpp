// Worker-side parallelism benchmark: serial vs ThreadPool execution of the
// per-batch hot paths inside one worker — chunk-parallel neighbor sampling,
// row-blocked forward/backward kernels, and a whole training epoch at
// worker_threads N against 1 — with a bit-identity check per section.
//
// Companion to bench_parallel_preprocessing (the master-side hot paths).
// The determinism contract is again the point: every pooled path must
// produce the same bytes as its serial counterpart, so the speedup
// column is pure profit. Each section also reports process-CPU time: a
// pooled section burns ~the serial CPU across more threads, so cpu/wall
// shows the achieved parallelism. Writes machine-readable results to --json
// (BENCH_worker.json) for the driver to archive.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/trainer.hpp"
#include "nn/model.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/parallel.hpp"
#include "util/flags.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

struct Section {
  std::string name;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  double serial_cpu_seconds = 0.0;
  double parallel_cpu_seconds = 0.0;
  bool bit_identical = false;

  [[nodiscard]] double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

/// Best-of-`repeats` wall time of `fn`, with the process-CPU time of the
/// best-wall repetition (min wall filters scheduler noise).
void time_best(int repeats, const std::function<void()>& fn, double& wall_out,
               double& cpu_out) {
  for (int r = 0; r < repeats; ++r) {
    const splpg::util::Stopwatch watch;
    const splpg::util::ProcessCpuStopwatch cpu_watch;
    fn();
    const double s = watch.seconds();
    if (r == 0 || s < wall_out) {
      wall_out = s;
      cpu_out = cpu_watch.seconds();
    }
  }
}

bool same_matrix(const splpg::tensor::Matrix& a, const splpg::tensor::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

bool same_graph(const splpg::sampling::ComputationGraph& a,
                const splpg::sampling::ComputationGraph& b) {
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

bool same_result(const splpg::core::TrainResult& a, const splpg::core::TrainResult& b) {
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
  const auto& pa = a.model->parameters();
  const auto& pb = b.model->parameters();
  if (pa.size() != pb.size()) return false;
  for (std::size_t p = 0; p < pa.size(); ++p) {
    if (!same_matrix(pa[p].value(), pb[p].value())) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace splpg;

  util::Flags flags(
      "Worker-side parallelism benchmark: serial vs ThreadPool neighbor "
      "sampling, row-blocked forward/backward kernels, and a training epoch. "
      "Each section verifies the parallel output is bit-identical to serial "
      "before timing it.");
  flags.define("dataset", "cora", "dataset for every section");
  flags.define("scale", 0.25, "dataset scale factor in (0, 1]");
  flags.define("seed", static_cast<std::int64_t>(1), "run seed");
  flags.define("partitions", static_cast<std::int64_t>(2), "partition count (epoch section)");
  flags.define("epochs", static_cast<std::int64_t>(2), "epochs for the epoch section");
  flags.define("max_batches", static_cast<std::int64_t>(4), "mini-batches per epoch");
  flags.define("hidden", static_cast<std::int64_t>(48), "hidden dimension");
  flags.define("layers", static_cast<std::int64_t>(2), "GNN layers");
  flags.define("worker-threads", static_cast<std::int64_t>(4),
               "per-worker ThreadPool width for the parallel variants (0 = hardware)");
  flags.define("repeats", static_cast<std::int64_t>(3), "timing repetitions (best-of)");
  flags.define("json", "BENCH_worker.json", "output path for machine-readable results");
  if (!flags.parse(argc, argv)) return 1;
  // A count outside its field's range would wrap when narrowed (a negative
  // one to a huge size, 2^32 epochs to 0), so each is checked before use.
  constexpr std::int64_t kU32 = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t kAny = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kInt = std::numeric_limits<int>::max();
  const std::tuple<const char*, std::int64_t, std::int64_t> counts[] = {
      {"partitions", 1, kU32}, {"epochs", 1, kU32},        {"max_batches", 0, kU32},
      {"hidden", 1, kAny},     {"layers", 1, kU32},        {"worker-threads", 0, kAny},
      {"repeats", 1, kInt}};
  for (const auto& [name, min, max] : counts) {
    if (!flags.int_in_range(name, min, max)) return 1;
  }

  const std::string dataset_name = flags.get_string("dataset");
  const double scale = flags.get_double("scale");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const auto num_parts = static_cast<std::uint32_t>(flags.get_int("partitions"));
  const auto epochs = static_cast<std::uint32_t>(flags.get_int("epochs"));
  const auto max_batches = static_cast<std::uint32_t>(flags.get_int("max_batches"));
  const auto hidden = static_cast<std::size_t>(flags.get_int("hidden"));
  const auto layers = static_cast<std::uint32_t>(flags.get_int("layers"));
  const auto worker_threads = static_cast<std::size_t>(flags.get_int("worker-threads"));
  const auto repeats = static_cast<int>(flags.get_int("repeats"));

  const unsigned hardware = std::max(1U, std::thread::hardware_concurrency());
  bench::print_title("WORKER-SIDE PARALLELISM — SERIAL vs THREADPOOL",
                     "per-batch hot paths; bit-identical outputs at every thread count");
  std::printf("dataset=%s scale=%.2f partitions=%u worker_threads=%zu "
              "repeats=%d hardware_concurrency=%u\n\n",
              dataset_name.c_str(), scale, num_parts, worker_threads, repeats, hardware);
  if (hardware < 2) {
    std::printf("NOTE: this host exposes %u CPU(s); pool speedups are bounded by the\n"
                "available cores, so expect ~1x here and scaling on multi-core hosts.\n\n",
                hardware);
  }

  const auto dataset = data::make_dataset(dataset_name, scale, seed);
  util::Rng split_rng = util::Rng(seed).split("split/" + dataset_name);
  const auto split = sampling::split_edges(dataset.graph, sampling::SplitOptions{}, split_rng);

  std::vector<Section> sections;

  // ---- section 1: k-hop neighbor sampling ----
  {
    sampling::GraphProvider provider(split.train_graph);
    const sampling::NeighborSampler sampler({25, 10});
    util::ThreadPool pool(worker_threads);

    std::vector<graph::NodeId> seeds;
    util::Rng seed_rng = util::Rng(seed).split("bench_seeds");
    for (int i = 0; i < 512; ++i) {
      seeds.push_back(static_cast<graph::NodeId>(
          seed_rng.uniform_u64(split.train_graph.num_nodes())));
    }

    Section section{"neighbor_sampling"};
    util::Rng rng_a(seed);
    util::Rng rng_b(seed);
    const auto a = sampler.sample(provider, seeds, rng_a);
    const auto b = sampler.sample(provider, seeds, rng_b, &pool);
    section.bit_identical = same_graph(a, b);
    time_best(repeats, [&] {
      util::Rng rng(seed);
      (void)sampler.sample(provider, seeds, rng);
    }, section.serial_seconds, section.serial_cpu_seconds);
    time_best(repeats, [&] {
      util::Rng rng(seed);
      (void)sampler.sample(provider, seeds, rng, &pool);
    }, section.parallel_seconds, section.parallel_cpu_seconds);
    sections.push_back(section);
  }

  // ---- section 2: forward/backward through the row-blocked kernels ----
  {
    nn::ModelConfig model_config;
    model_config.in_dim = dataset.features.dim();
    model_config.hidden_dim = hidden;
    model_config.num_layers = layers;
    nn::LinkPredictionModel model(model_config, seed);

    sampling::GraphProvider provider(split.train_graph);
    const sampling::NeighborSampler sampler(model.default_fanouts());
    std::vector<graph::NodeId> seeds;
    std::vector<nn::PairIndex> pairs;
    std::vector<float> labels;
    for (std::size_t i = 0; i < std::min<std::size_t>(256, split.train_pos.size()); ++i) {
      seeds.push_back(split.train_pos[i].u);
      seeds.push_back(split.train_pos[i].v);
      labels.push_back(static_cast<float>(i % 2));
    }
    util::Rng cg_rng(seed);
    const auto cg = sampler.sample(provider, seeds, cg_rng);
    std::unordered_map<graph::NodeId, std::uint32_t> seed_index;
    const auto seed_nodes = cg.seed_nodes();
    for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) seed_index.emplace(seed_nodes[i], i);
    for (std::size_t i = 0; i + 1 < seeds.size(); i += 2) {
      pairs.push_back({seed_index.at(seeds[i]), seed_index.at(seeds[i + 1])});
    }

    util::ThreadPool pool(worker_threads);
    auto forward_backward = [&] {
      const auto embeddings = model.encode(cg, dataset.features);
      const auto logits = model.score(embeddings, pairs);
      auto loss = bce_with_logits(logits, labels);
      model.zero_grad();
      loss.backward();
      return loss.item();
    };
    auto collect_grads = [&] {
      std::vector<tensor::Matrix> grads;
      for (const auto& p : model.parameters()) grads.push_back(p.grad());
      return grads;
    };

    Section section{"forward_backward"};
    const float loss_serial = forward_backward();
    const auto grads_serial = collect_grads();
    float loss_pooled = 0.0F;
    std::vector<tensor::Matrix> grads_pooled;
    {
      const tensor::ComputePoolScope scope(&pool);
      loss_pooled = forward_backward();
      grads_pooled = collect_grads();
    }
    section.bit_identical =
        loss_serial == loss_pooled && grads_serial.size() == grads_pooled.size();
    for (std::size_t p = 0; section.bit_identical && p < grads_serial.size(); ++p) {
      section.bit_identical = same_matrix(grads_serial[p], grads_pooled[p]);
    }
    time_best(repeats, [&] { (void)forward_backward(); }, section.serial_seconds,
              section.serial_cpu_seconds);
    time_best(repeats, [&] {
      const tensor::ComputePoolScope scope(&pool);
      (void)forward_backward();
    }, section.parallel_seconds, section.parallel_cpu_seconds);
    sections.push_back(section);
  }

  // ---- section 3: full training epochs, worker_threads N vs 1 ----
  {
    core::TrainConfig config;
    config.method = core::Method::kSplpg;
    config.model.hidden_dim = hidden;
    config.model.num_layers = layers;
    config.epochs = epochs;
    config.num_partitions = num_parts;
    config.max_batches_per_epoch = max_batches;
    config.batch_size = dataset.batch_size;
    config.sync = dist::SyncMode::kGradientAveraging;
    config.seed = seed;

    auto run_with = [&](std::size_t wt) {
      core::TrainConfig c = config;
      c.worker_threads = wt;
      return core::train_link_prediction(split, dataset.features, c);
    };

    Section section{"train_epoch"};
    const auto a = run_with(1);
    const auto b = run_with(worker_threads);
    section.bit_identical = same_result(a, b);
    time_best(repeats, [&] { (void)run_with(1); }, section.serial_seconds,
              section.serial_cpu_seconds);
    time_best(repeats, [&] { (void)run_with(worker_threads); }, section.parallel_seconds,
              section.parallel_cpu_seconds);
    sections.push_back(section);
  }

  // ---- report ----
  std::printf("%-24s %11s %11s %11s %11s %8s %13s\n", "section", "serial (s)", "pool (s)",
              "ser cpu(s)", "pool cpu(s)", "speedup", "bit_identical");
  bench::print_rule();
  for (const auto& section : sections) {
    std::printf("%-24s %11.4f %11.4f %11.4f %11.4f %7.2fx %13s\n", section.name.c_str(),
                section.serial_seconds, section.parallel_seconds, section.serial_cpu_seconds,
                section.parallel_cpu_seconds, section.speedup(),
                section.bit_identical ? "yes" : "NO");
  }

  bool all_identical = true;
  for (const auto& section : sections) all_identical = all_identical && section.bit_identical;
  std::printf("\nExpected shape: bit_identical=yes everywhere; pooled cpu ~ serial cpu while\n"
              "pooled wall shrinks toward cpu/threads on hosts with free cores (this host: "
              "%u).\n",
              hardware);

  const std::string json_path = flags.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n"
        << "  \"bench\": \"worker_parallel\",\n"
        << "  \"dataset\": \"" << dataset_name << "\",\n"
        << "  \"scale\": " << scale << ",\n"
        << "  \"partitions\": " << num_parts << ",\n"
        << "  \"worker_threads\": " << worker_threads << ",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"hardware_concurrency\": " << hardware << ",\n"
        << "  \"all_bit_identical\": " << (all_identical ? "true" : "false") << ",\n"
        << "  \"sections\": [\n";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const auto& section = sections[i];
      out << "    {\"name\": \"" << section.name << "\", \"serial_seconds\": "
          << section.serial_seconds << ", \"parallel_seconds\": " << section.parallel_seconds
          << ", \"serial_cpu_seconds\": " << section.serial_cpu_seconds
          << ", \"parallel_cpu_seconds\": " << section.parallel_cpu_seconds
          << ", \"speedup\": " << section.speedup() << ", \"bit_identical\": "
          << (section.bit_identical ? "true" : "false") << "}"
          << (i + 1 < sections.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return all_identical ? 0 : 1;
}
