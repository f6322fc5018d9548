// splpg_p4 and centralized: link-prediction training on the cora-like
// dataset at full Table-I size, 3-layer SAGE encoder + 3-layer MLP predictor,
// gradient averaging, evaluation only after the last epoch.
//
// The timed run calls core::train_link_prediction. The traced run calls it
// once untraced, then replays the same training through the public
// functions of partition, sparsify, sampling, dist, nn and core, with a span
// around every call; it must reproduce the untraced run's bytes and AUC
// exactly, which is what shows the replay runs the same program.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/evaluator.hpp"
#include "core/method.hpp"
#include "core/trainer.hpp"
#include "data/dataset.hpp"
#include "dist/master_store.hpp"
#include "dist/sync.hpp"
#include "dist/worker_view.hpp"
#include "nn/checkpoint.hpp"
#include "nn/optimizer.hpp"
#include "sampling/negative_sampler.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sparsify/sparsifier.hpp"
#include "stats.hpp"
#include "tensor/autograd.hpp"
#include "tensor/parallel.hpp"
#include "trace.hpp"
#include "util/thread_pool.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace splpg;
using graph::Edge;
using graph::NodeId;
using sampling::NodePair;
using Clock = std::chrono::steady_clock;

// The epoch budget is the fewest epochs at which every seed tried reaches the
// validation-AUC target (one epoch gives 0.84-0.89 on seeds 1-5); a run that
// ends below the target counts as failed.
constexpr std::uint32_t kEpochBudget = 1;
constexpr double kValAucTarget = 0.80;
// hidden 64 instead of the paper's 256 keeps one training call at a few
// seconds on a 4-CPU host, so a run holds several of them.
constexpr std::size_t kHiddenDim = 64;
// Set-up is timed twice before every timed call rather than all at the start,
// so its samples span the window as the calls do. The host's speed drifts by
// 20-30% over seconds; nine set-ups timed back to back at the start moved the
// median by up to a third from run to run.
constexpr int kSetupsPerCall = 2;
constexpr std::size_t kMinTimedCalls = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Setup {
  data::Dataset dataset;
  sampling::LinkSplit split;
};

Setup make_setup(std::uint64_t seed) {
  Setup setup{data::make_dataset("cora", 1.0, seed), {}};
  util::Rng rng = util::Rng(seed).split("split");
  setup.split = sampling::split_edges(setup.dataset.graph, {}, rng);
  return setup;
}

core::TrainConfig make_config(bool centralized, const Setup& setup, std::uint64_t seed) {
  core::TrainConfig config;
  config.method = centralized ? core::Method::kCentralized : core::Method::kSplpg;
  config.num_partitions = 4;
  config.sync = dist::SyncMode::kGradientAveraging;
  config.epochs = kEpochBudget;
  config.batch_size = setup.dataset.batch_size;
  config.model.hidden_dim = kHiddenDim;
  config.model.in_dim = setup.dataset.features.dim();
  // One worker thread per partition on splpg_p4; the single centralized
  // worker gets the 4 CPUs as intra-op threads instead. Evaluation and
  // sparsification run on the master pool while the workers wait.
  config.worker_threads = centralized ? 4 : 1;
  config.num_threads = 4;
  config.seed = seed;
  return config;
}

core::Evaluator make_evaluator(const Setup& setup, const core::TrainConfig& config) {
  const nn::LinkPredictionModel probe(config.model, config.seed);
  return core::Evaluator(setup.split, setup.dataset.features, probe.default_fanouts(),
                         config.eval_k, 512, 7, config.num_threads);
}

/// Times one set-up (dataset generation + edge split) on the next CPU in
/// turn and drops it.
void time_setup(std::uint64_t seed, std::vector<double>& seconds) {
  seconds.push_back(seconds_on_cpu(seconds.size(), [seed] { return make_setup(seed); }));
}

// ---------------------------------------------------------------- replay ---

/// Adjacency reads through the worker's view, timed one by one and folded
/// into the enclosing k-hop sampling span (they are too many to keep as
/// spans). Concurrency is the view's, so the sampler behaves exactly as it
/// does on the view itself.
class TimedAdjacency final : public sampling::AdjacencyProvider {
 public:
  explicit TimedAdjacency(dist::WorkerView& view) : view_(&view) {}

  void append_neighbors(NodeId v, std::vector<NodeId>& neighbors,
                        std::vector<float>& weights) override {
    const auto start = Clock::now();
    view_->append_neighbors(v, neighbors, weights);
    Span::fold(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    if (!view_->is_core(v)) ++remote_reads_;
  }
  [[nodiscard]] bool concurrent_safe() const noexcept override {
    return view_->concurrent_safe();
  }
  [[nodiscard]] std::uint64_t remote_reads() const noexcept { return remote_reads_; }

 private:
  dist::WorkerView* view_;
  std::uint64_t remote_reads_ = 0;
};

struct ReplayWorker {
  std::unique_ptr<dist::WorkerView> view;
  std::unique_ptr<nn::LinkPredictionModel> model;
  std::unique_ptr<nn::Adam> optimizer;
  std::unique_ptr<sampling::PerSourceNegativeSampler> negatives;
  std::unique_ptr<util::ThreadPool> pool;
  std::vector<Edge> owned;
  std::vector<double> sync_arrive_us;  // one per all_reduce_gradients call
  std::vector<double> sync_leave_us;
  std::uint64_t remote_adjacency_reads = 0;
  std::uint64_t remote_feature_rows = 0;
  std::uint64_t cg_edges = 0;
};

struct ReplayOutcome {
  dist::CommStats comm;
  core::EvalResult eval;
  std::uint64_t kept_edges = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t eval_pairs = 0;
  std::uint64_t sync_calls = 0;
  std::uint64_t remote_reads = 0;  // adjacency reads + feature rows of non-local nodes
  std::uint64_t cg_edges = 0;
  double sync_wait_s = 0.0;
  double sync_reduce_s = 0.0;
};

/// One mini-batch, statement for statement as the trainer runs it.
void replay_batch(ReplayWorker& me, TimedAdjacency& adjacency,
                  const sampling::NeighborSampler& sampler, std::span<const Edge> positives,
                  util::Rng& rng, Tracer& tracer, std::uint32_t lane) {
  me.view->begin_batch();
  std::vector<NodePair> negative_pairs;
  {
    Span span(tracer, "sampling.negatives", lane);
    negative_pairs = me.negatives->sample_for_batch(positives, rng);
  }
  std::vector<NodeId> seeds;
  seeds.reserve(2 * (positives.size() + negative_pairs.size()));
  for (const auto& [u, v] : positives) {
    seeds.push_back(u);
    seeds.push_back(v);
  }
  for (const auto& [u, v] : negative_pairs) {
    seeds.push_back(u);
    seeds.push_back(v);
  }
  sampling::ComputationGraph cg;
  {
    Span span(tracer, "sampling.khop", lane);
    cg = sampler.sample(adjacency, seeds, rng, me.view->pool());
  }
  me.cg_edges += cg.total_edges();
  tensor::Matrix input_features;
  {
    Span span(tracer, "dist.fetch_features", lane);
    input_features = me.view->gather_features(cg.input_nodes());
  }
  for (const NodeId v : cg.input_nodes()) {
    if (!me.view->is_local_feature(v)) ++me.remote_feature_rows;
  }

  std::unordered_map<NodeId, std::uint32_t> seed_index;
  const auto seed_nodes = cg.seed_nodes();
  seed_index.reserve(seed_nodes.size() * 2);
  for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) seed_index.emplace(seed_nodes[i], i);
  std::vector<nn::PairIndex> pairs;
  std::vector<float> labels;
  pairs.reserve(positives.size() + negative_pairs.size());
  labels.reserve(positives.size() + negative_pairs.size());
  for (const auto& [u, v] : positives) {
    pairs.push_back({seed_index.at(u), seed_index.at(v)});
    labels.push_back(1.0F);
  }
  for (const auto& [u, v] : negative_pairs) {
    pairs.push_back({seed_index.at(u), seed_index.at(v)});
    labels.push_back(0.0F);
  }

  tensor::Tensor loss;
  {
    Span span(tracer, "nn.forward", lane);
    const auto embeddings = me.model->encode(cg, std::move(input_features));
    const auto logits = me.model->score(embeddings, pairs);
    loss = tensor::bce_with_logits(logits, labels);
  }
  Span span(tracer, "nn.backward", lane);
  me.model->zero_grad();
  loss.backward();
}

/// The fault-free, unpipelined path of core::train_link_prediction under
/// gradient averaging, rebuilt from the modules' public functions.
ReplayOutcome replay_training(const Setup& setup, const core::TrainConfig& config,
                              const core::Evaluator& evaluator, Tracer& tracer) {
  const sampling::LinkSplit& split = setup.split;
  const graph::FeatureStore& features = setup.dataset.features;
  const graph::CsrGraph& train_graph = split.train_graph;
  const std::uint32_t num_workers =
      config.method == core::Method::kCentralized ? 1 : config.num_partitions;
  const std::uint32_t master_lane = num_workers;
  ReplayOutcome outcome;

  util::Rng master_rng = util::Rng(config.seed).split("master");
  const auto partitioner =
      core::method_partitioner(config.method, config.super_clusters_per_part);
  partition::PartitionResult parts;
  {
    Span span(tracer, "partition", master_lane);
    parts = partitioner->partition(train_graph, num_workers, master_rng);
  }
  dist::MasterStore store(train_graph, &features, std::move(parts));

  if (core::uses_sparsification(config.method)) {
    sparsify::SparsifyConfig sparsify_config;
    sparsify_config.alpha = config.alpha;
    sparsify_config.num_threads = config.num_threads;
    const auto sparsifier = sparsify::make_sparsifier(config.sparsifier, sparsify_config);
    std::vector<sparsify::SparsifyStats> stats;
    util::Rng sparsify_rng = util::Rng(config.seed).split("sparsify");
    std::vector<std::uint32_t> assignment(store.graph().num_nodes());
    for (NodeId v = 0; v < store.graph().num_nodes(); ++v) assignment[v] = store.part_of(v);
    Span span(tracer, "sparsify", master_lane);
    store.set_sparsified(sparsifier->sparsify_partitions(store.graph(), assignment, num_workers,
                                                         sparsify_rng, &stats));
    for (const auto& s : stats) outcome.kept_edges += s.kept_edges;
  }

  const dist::WorkerPolicy policy = core::worker_policy(config.method);
  std::vector<ReplayWorker> workers(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    ReplayWorker& me = workers[w];
    me.view = std::make_unique<dist::WorkerView>(store, w, policy);
    me.model = std::make_unique<nn::LinkPredictionModel>(config.model, config.seed);
    me.optimizer = std::make_unique<nn::Adam>(*me.model, config.learning_rate);
    auto candidates = me.view->negative_candidates();
    auto weights = sampling::negative_candidate_weights(config.negative_distribution,
                                                        train_graph, candidates);
    me.negatives = std::make_unique<sampling::PerSourceNegativeSampler>(
        std::move(candidates),
        [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); },
        std::move(weights));
    me.owned = num_workers == 1 ? split.train_pos : me.view->owned_positive_edges(split.train_pos);
    if (config.worker_threads != 1) {
      me.pool = std::make_unique<util::ThreadPool>(config.worker_threads);
      me.view->attach_pool(me.pool.get());
    }
  }
  const sampling::NeighborSampler sampler(config.fanouts.empty()
                                              ? workers[0].model->default_fanouts()
                                              : config.fanouts);
  std::size_t max_owned = 1;
  for (const auto& me : workers) max_owned = std::max(max_owned, me.owned.size());
  const auto rounds =
      static_cast<std::uint32_t>((max_owned + config.batch_size - 1) / config.batch_size);

  dist::DistContext context(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    context.register_replica(w, workers[w].model.get());
  }
  if (num_workers > 1) {
    dist::CommHookOptions hook_options;
    hook_options.topk_fraction = config.topk_fraction;
    context.set_comm_hook(dist::make_comm_hook(config.comm_hook, hook_options, num_workers));
    for (std::uint32_t w = 0; w < num_workers; ++w) {
      context.attach_meter(w, &workers[w].view->meter());
    }
  }

  const auto checkpoint = [&](std::uint32_t epoch) {
    Span span(tracer, "nn.checkpoint", master_lane);
    std::ostringstream out;
    nn::save_train_state(out, *workers[0].model, *workers[0].optimizer, epoch);
    outcome.checkpoint_bytes += out.str().size();
  };
  checkpoint(0);

  const auto end_of_epoch = [&](std::uint32_t epoch) {
    for (auto& me : workers) outcome.comm += me.view->meter().drain();
    if (epoch == config.epochs) {
      Span span(tracer, "core.eval", master_lane);
      outcome.eval = evaluator.evaluate(*workers[0].model);
      outcome.eval_pairs += split.val_pos.size() + split.val_neg.size() +
                            split.test_pos.size() + split.test_neg.size();
    }
    checkpoint(epoch);
  };

  std::vector<std::exception_ptr> errors(num_workers);
  const auto worker_main = [&](std::uint32_t w) {
    try {
      ReplayWorker& me = workers[w];
      const tensor::ComputePoolScope compute_scope(me.pool.get());
      TimedAdjacency adjacency(*me.view);
      util::Rng worker_rng = util::Rng(config.seed).split("worker", w);
      sampling::BatchIterator batches(me.owned, config.batch_size);
      for (std::uint32_t epoch = 1; epoch <= config.epochs; ++epoch) {
        util::Rng rng = worker_rng.split("epoch", epoch);
        util::Rng shuffle_rng = worker_rng.split("shuffle", epoch);
        batches.reset(shuffle_rng);
        for (std::uint32_t round = 0; round < rounds; ++round) {
          std::vector<Edge> batch = batches.next();
          if (batch.empty()) {
            batches.reset(shuffle_rng);
            batch = batches.next();
          }
          if (!batch.empty()) replay_batch(me, adjacency, sampler, batch, rng, tracer, w);
          if (num_workers > 1) {
            me.sync_arrive_us.push_back(tracer.now_us());
            {
              Span span(tracer, "dist.sync", w);
              context.all_reduce_gradients();
            }
            me.sync_leave_us.push_back(tracer.now_us());
          }
          Span span(tracer, "nn.optim", w);
          me.optimizer->step();
        }
        context.run_serial([&] { end_of_epoch(epoch); });
      }
      me.remote_adjacency_reads = adjacency.remote_reads();
    } catch (...) {
      errors[w] = std::current_exception();
      context.leave(w);
    }
  };
  if (num_workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_workers);
    for (std::uint32_t w = 0; w < num_workers; ++w) threads.emplace_back(worker_main, w);
    for (auto& thread : threads) thread.join();
  }
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Sync wait: last arrival minus own arrival at each collective; reduce:
  // own return minus last arrival. Every worker calls it equally often.
  for (std::size_t call = 0; num_workers > 1 && call < workers[0].sync_arrive_us.size(); ++call) {
    double last = 0.0;
    for (const auto& me : workers) last = std::max(last, me.sync_arrive_us[call]);
    for (const auto& me : workers) {
      outcome.sync_wait_s += (last - me.sync_arrive_us[call]) * 1e-6;
      outcome.sync_reduce_s += (me.sync_leave_us[call] - last) * 1e-6;
    }
  }
  for (const auto& me : workers) {
    outcome.sync_calls += me.sync_arrive_us.size();
    outcome.remote_reads += me.remote_adjacency_reads + me.remote_feature_rows;
    outcome.cg_edges += me.cg_edges;
  }
  return outcome;
}

/// Largest per-worker busy time over the mean (1 = perfectly balanced).
double worker_imbalance(std::span<const SpanRecord> spans, std::uint32_t num_workers) {
  std::vector<double> busy(num_workers, 0.0);
  for (const SpanRecord& span : spans) {
    if (span.lane < num_workers && span.name != "dist.sync") busy[span.lane] += span.duration_us();
  }
  double total = 0.0;
  for (const double b : busy) total += b;
  const double mean = total / num_workers;
  return mean > 0.0 ? *std::max_element(busy.begin(), busy.end()) / mean : 0.0;
}

RunResult traced_training(const Options& options, bool centralized) {
  RunResult result;
  const Setup setup = make_setup(options.seed);
  const core::TrainConfig config = make_config(centralized, setup, options.seed);
  const core::Evaluator evaluator = make_evaluator(setup, config);

  // The second of two untraced calls is the overhead baseline, so neither
  // side pays the first call's cold caches.
  (void)core::train_link_prediction(setup.split, setup.dataset.features, config);
  auto start = Clock::now();
  const core::TrainResult untraced =
      core::train_link_prediction(setup.split, setup.dataset.features, config);
  const double untraced_s = seconds_since(start);
  const double val_auc = evaluator.evaluate(*untraced.model).val_auc;
  ++result.attempted;
  if (val_auc < kValAucTarget) result.fail("untraced run ended below the val-AUC target");

  Tracer tracer;
  start = Clock::now();
  const ReplayOutcome replay = replay_training(setup, config, evaluator, tracer);
  const double traced_s = seconds_since(start);
  ++result.attempted;
  if (replay.comm.total_bytes() != untraced.comm.total_bytes() ||
      replay.comm.sync_bytes != untraced.comm.sync_bytes) {
    result.fail("replay bytes differ from TrainResult::comm");
  } else if (replay.eval.val_auc != val_auc || replay.eval.test_auc != untraced.test_auc) {
    result.fail("replay AUC differs from the untraced run");
  }

  const std::vector<SpanRecord> spans = tracer.spans();
  const std::uint32_t num_workers = centralized ? 1 : config.num_partitions;
  double adjacency_us = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.name == "sampling.khop") adjacency_us += span.folded_us;
  }
  const double charged = static_cast<double>(replay.comm.structure_fetches +
                                             replay.comm.feature_fetches);
  std::vector<Metric>& m = result.metrics;
  m = per_layer_metrics();
  set_metric(m, "partition.busy_s", busy_s(spans, "partition"));
  set_metric(m, "sparsify.busy_s", busy_s(spans, "sparsify"));
  set_metric(m, "sparsify.kept_edges", static_cast<double>(replay.kept_edges));
  set_metric(m, "sampling.neg_busy_s", busy_s(spans, "sampling.negatives"));
  set_metric(m, "sampling.khop_self_s", self_s(spans, "sampling.khop"));
  set_metric(m, "sampling.cg_edges", static_cast<double>(replay.cg_edges));
  set_metric(m, "dist.fetch_adj_busy_s", adjacency_us * 1e-6);
  set_metric(m, "dist.fetch_feat_busy_s", busy_s(spans, "dist.fetch_features"));
  set_metric(m, "dist.graph_bytes", static_cast<double>(replay.comm.total_bytes()));
  set_metric(m, "dist.fetch_dedup_ratio",
      replay.remote_reads > 0 ? 1.0 - charged / static_cast<double>(replay.remote_reads) : 0.0);
  set_metric(m, "dist.sync_wait_s", replay.sync_wait_s);
  set_metric(m, "dist.sync_reduce_s", replay.sync_reduce_s);
  set_metric(m, "dist.sync_bytes", static_cast<double>(replay.comm.sync_bytes));
  set_metric(m, "dist.sync_calls", static_cast<double>(replay.sync_calls));
  set_metric(m, "dist.worker_imbalance", worker_imbalance(spans, num_workers));
  set_metric(m, "nn.forward_busy_s", busy_s(spans, "nn.forward"));
  set_metric(m, "nn.backward_busy_s", busy_s(spans, "nn.backward"));
  set_metric(m, "nn.optim_busy_s", busy_s(spans, "nn.optim"));
  set_metric(m, "nn.checkpoint_busy_s", busy_s(spans, "nn.checkpoint"));
  set_metric(m, "nn.checkpoint_bytes", static_cast<double>(replay.checkpoint_bytes));
  set_metric(m, "core.eval_busy_s", busy_s(spans, "core.eval"));
  set_metric(m, "core.eval_pairs", static_cast<double>(replay.eval_pairs));
  set_metric(m, "trace.overhead_s", traced_s - untraced_s);

  result.details = {{"untraced_wall_s", untraced_s, "s"},
                    {"traced_wall_s", traced_s, "s"},
                    {"val_auc", val_auc, "auc"},
                    {"replay_val_auc", replay.eval.val_auc, "auc"},
                    {"graph_bytes_trainresult", static_cast<double>(untraced.comm.total_bytes()), "bytes"},
                    {"sync_bytes_trainresult", static_cast<double>(untraced.comm.sync_bytes), "bytes"},
                    {"spans", static_cast<double>(spans.size()), "count"}};
  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    write_chrome_trace(out, spans);
  }
  return result;
}

RunResult timed_training(const Options& options, bool centralized) {
  RunResult result;
  const Setup setup = make_setup(options.seed);
  const core::TrainConfig config = make_config(centralized, setup, options.seed);
  const core::Evaluator evaluator = make_evaluator(setup, config);

  // The first call warms allocators and caches, and is the reference every
  // timed call must reproduce byte for byte.
  const core::TrainResult reference =
      core::train_link_prediction(setup.split, setup.dataset.features, config);
  const double val_auc = evaluator.evaluate(*reference.model).val_auc;
  ++result.attempted;
  if (val_auc < kValAucTarget) result.fail("val AUC below target");

  std::vector<double> setup_s;
  std::vector<double> walls;
  std::vector<double> epochs;
  const auto window = Clock::now();
  while (walls.size() < kMinTimedCalls || seconds_since(window) + median(walls) <= options.seconds) {
    for (int i = 0; i < kSetupsPerCall; ++i) time_setup(options.seed, setup_s);
    const auto start = Clock::now();
    const core::TrainResult run =
        core::train_link_prediction(setup.split, setup.dataset.features, config);
    walls.push_back(seconds_since(start));
    for (const auto& record : run.history) epochs.push_back(record.seconds);
    ++result.attempted;
    if (run.comm.total_bytes() != reference.comm.total_bytes() ||
        run.comm.sync_bytes != reference.comm.sync_bytes) {
      result.fail("graph/sync bytes differ between repeats");
    } else if (run.test_auc != reference.test_auc) {
      result.fail("test AUC differs between repeats");
    }
  }

  result.metrics = {{"setup_s", median(setup_s), "s"},
                    {"job_s", median(walls), "s"},
                    {"latency_ms", median(epochs) * 1e3, "ms"},
                    {"peak_rss_mb", peak_rss_mb(), "MB"}};
  result.details = {{"val_auc", val_auc, "auc"},
                    {"time_to_auc_s", median(walls), "s"},
                    {"time_to_auc_s.max", *std::max_element(walls.begin(), walls.end()), "s"},
                    {"time_to_auc_s.samples", static_cast<double>(walls.size()), "count"},
                    {"setup_s.samples", static_cast<double>(setup_s.size()), "count"},
                    {"epoch_s", median(epochs), "s"},
                    {"epoch_s.samples", static_cast<double>(epochs.size()), "count"},
                    {"epoch_budget", kEpochBudget, "epochs"},
                    {"val_auc_target", kValAucTarget, "auc"},
                    {"test_auc", reference.test_auc, "auc"},
                    {"graph_mb_per_epoch", reference.comm_gigabytes_per_epoch * 1024.0, "MB"},
                    {"sync_mb_per_epoch", reference.sync_gigabytes_per_epoch * 1024.0, "MB"}};
  return result;
}

}  // namespace

RunResult run_training(const Options& options, bool centralized) {
  return options.trace ? traced_training(options, centralized)
                       : timed_training(options, centralized);
}

}  // namespace perfbench
