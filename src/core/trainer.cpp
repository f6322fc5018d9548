#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "dist/worker_view.hpp"
#include "nn/checkpoint.hpp"
#include "nn/optimizer.hpp"
#include "sampling/negative_sampler.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sparsify/sparsifier.hpp"
#include "tensor/parallel.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace splpg::core {

using graph::Edge;
using graph::NodeId;
using sampling::NodePair;

namespace {

/// Thrown by a worker when the fault plan schedules its crash. Not an
/// error: the trainer parks the worker, survivors keep going, and the
/// worker is respawned from the latest checkpoint at the epoch boundary.
struct WorkerCrashed {};

/// Stage-1 output of one mini-batch: everything the forward/backward pass
/// needs, with all RNG- and WorkerView-touching work already done. LLCG's
/// correction runs the same two stages on the master's full-graph view.
struct PreparedBatch {
  sampling::ComputationGraph cg;
  tensor::Matrix input_features;
  std::vector<nn::PairIndex> pairs;
  std::vector<float> labels;
};

/// Stage 1: negative sampling, seed assembly, k-hop neighbor sampling (on
/// the view's pool when attached), and the feature gather. Consumes `rng` in
/// exactly the serial order; the view's meter/fault state advances here.
PreparedBatch prepare_batch(dist::WorkerView& view,
                            const sampling::NeighborSampler& sampler,
                            const sampling::PerSourceNegativeSampler& negatives,
                            std::span<const Edge> positives, util::Rng& rng) {
  view.begin_batch();

  // Per-source uniform negatives, one per positive (balanced batch, §II-B).
  const std::vector<NodePair> negative_pairs = negatives.sample_for_batch(positives, rng);

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

  PreparedBatch prep;
  prep.cg = sampler.sample(view, seeds, rng, view.pool());
  prep.input_features = view.gather_features(prep.cg.input_nodes());

  std::unordered_map<NodeId, std::uint32_t> seed_index;
  const auto seed_nodes = prep.cg.seed_nodes();
  seed_index.reserve(seed_nodes.size() * 2);
  for (std::uint32_t i = 0; i < seed_nodes.size(); ++i) seed_index.emplace(seed_nodes[i], i);

  prep.pairs.reserve(positives.size() + negative_pairs.size());
  prep.labels.reserve(positives.size() + negative_pairs.size());
  for (const auto& [u, v] : positives) {
    prep.pairs.push_back({seed_index.at(u), seed_index.at(v)});
    prep.labels.push_back(1.0F);
  }
  for (const auto& [u, v] : negative_pairs) {
    prep.pairs.push_back({seed_index.at(u), seed_index.at(v)});
    prep.labels.push_back(0.0F);
  }
  return prep;
}

/// Stage 2: forward, loss, backward. RNG-free and view-free. Returns the
/// loss.
float compute_batch(nn::LinkPredictionModel& model, PreparedBatch prep) {
  const auto embeddings = model.encode(prep.cg, std::move(prep.input_features));
  const auto logits = model.score(embeddings, prep.pairs);
  auto loss = bce_with_logits(logits, prep.labels);
  model.zero_grad();
  loss.backward();
  return loss.item();
}

/// Per-source negative sampler whose rejection oracle is the training graph:
/// a worker always knows the full neighbor list of its own (source) nodes.
std::unique_ptr<sampling::PerSourceNegativeSampler> make_negative_sampler(
    const graph::CsrGraph& train_graph, std::vector<NodeId> candidates,
    sampling::NegativeDistribution distribution) {
  auto weights = sampling::negative_candidate_weights(distribution, train_graph, candidates);
  return std::make_unique<sampling::PerSourceNegativeSampler>(
      std::move(candidates),
      [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); },
      std::move(weights));
}

/// Everything one worker owns. The master builds it; afterwards only the
/// worker's own thread touches it, except inside barrier serial sections
/// (every other thread blocked) and for the crash/resume flags, which the
/// recovery mutex guards.
struct Worker {
  std::unique_ptr<dist::WorkerView> view;
  std::shared_ptr<nn::LinkPredictionModel> replica;
  std::unique_ptr<nn::Adam> optimizer;
  std::unique_ptr<sampling::PerSourceNegativeSampler> negatives;
  /// Degraded batches (permanent fetch failure) draw negatives from the
  /// worker's own partition only. Null without a fault plan.
  std::unique_ptr<sampling::PerSourceNegativeSampler> fallback;
  std::vector<Edge> owned;
  /// Compute pool (worker_threads != 1), shared by the sampler's chunked
  /// fanout picks and, via ComputePoolScope, the row-blocked tensor kernels.
  /// One pool per worker keeps the worker streams independent.
  std::unique_ptr<util::ThreadPool> pool;
  double epoch_loss = 0.0;
  std::uint64_t epoch_batches = 0;
  /// Rounds since this replica was last model-averaged (this epoch).
  std::uint32_t rounds_since_average = 0;
  std::exception_ptr error;
  bool crash_pending = false;      // crashed, not yet restored
  std::uint32_t resume_epoch = 0;  // set when the respawned worker may go on
};

/// One worker's random streams and batch order for one epoch. All of them
/// are pure functions of (seed, worker, epoch), which is what makes
/// checkpoint resume and crash recovery bit-exact.
struct EpochStreams {
  util::Rng rng;      // negatives and neighbor sampling
  util::Rng shuffle;  // batch order, redrawn when a short partition wraps
  sampling::BatchIterator& batches;
};

/// LLCG's server-side correction ("Learn Locally, Correct Globally"): SGD
/// steps of the averaged model on the whole training graph, as one
/// partition, with global negatives. Built once per run.
struct GlobalCorrection {
  GlobalCorrection(const sampling::LinkSplit& split, const graph::FeatureStore& features,
                   std::uint32_t batch_size)
      : store(split.train_graph, &features,
              {1, std::vector<std::uint32_t>(split.train_graph.num_nodes(), 0)}),
        view(store, 0, {true, dist::RemoteAdjacency::kNone, dist::NegativeScope::kGlobal}),
        negatives(make_negative_sampler(split.train_graph, store.part_nodes(0),
                                        sampling::NegativeDistribution::kUniform)),
        batches(split.train_pos, batch_size) {}
  // `view` points at `store`: the object must stay where it was built.
  GlobalCorrection(const GlobalCorrection&) = delete;
  GlobalCorrection& operator=(const GlobalCorrection&) = delete;

  dist::MasterStore store;
  dist::WorkerView view;
  std::unique_ptr<sampling::PerSourceNegativeSampler> negatives;
  sampling::BatchIterator batches;
};

/// Partitions the training graph and, for SpLPG, sparsifies the partitions.
dist::MasterStore partition_and_sparsify(const sampling::LinkSplit& split,
                                         const graph::FeatureStore& features,
                                         const TrainConfig& config, std::uint32_t num_workers,
                                         TrainResult& result) {
  util::Rng master_rng = util::Rng(config.seed).split("master");
  const auto partitioner = method_partitioner(config.method, config.super_clusters_per_part);
  partition::PartitionResult parts =
      partitioner->partition(split.train_graph, num_workers, master_rng);
  result.partition_edge_cut = partition::edge_cut(split.train_graph, parts);
  dist::MasterStore store(split.train_graph, &features, std::move(parts));
  if (!uses_sparsification(config.method)) return store;

  sparsify::SparsifyConfig sparsify_config;
  sparsify_config.alpha = config.alpha;
  sparsify_config.num_threads = config.num_threads;
  const auto sparsifier = sparsify::make_sparsifier(config.sparsifier, sparsify_config);
  util::Rng sparsify_rng = util::Rng(config.seed).split("sparsify");
  std::vector<std::uint32_t> assignment(store.graph().num_nodes());
  for (NodeId v = 0; v < store.graph().num_nodes(); ++v) assignment[v] = store.part_of(v);
  const util::Stopwatch sparsify_watch;
  store.set_sparsified(
      sparsifier->sparsify_partitions(store.graph(), assignment, num_workers, sparsify_rng));
  result.sparsify_seconds = sparsify_watch.seconds();
  return store;
}

/// The distributed phase of one train_link_prediction call: p workers, the
/// collectives that join them, and the epoch-boundary serial sections that
/// evaluate, checkpoint and recover.
class TrainingRun {
 public:
  TrainingRun(const sampling::LinkSplit& split, const graph::FeatureStore& features,
              const TrainConfig& config, const dist::MasterStore& store,
              std::uint32_t num_workers, TrainResult& result)
      : split_(split),
        config_(config),
        result_(result),
        num_workers_(num_workers),
        averages_models_(config.sync == dist::SyncMode::kModelAveraging && num_workers > 1),
        injector_(config.faults.empty() ? nullptr
                                        : std::make_unique<dist::FaultInjector>(
                                              config.faults, config.seed, num_workers)),
        workers_(build_workers(store)),
        sampler_(fanouts()),
        evaluator_(split, features, fanouts(), config.eval_k, 512, 7, config.num_threads),
        context_(num_workers) {
    std::size_t max_owned = 1;
    for (const Worker& me : workers_) max_owned = std::max(max_owned, me.owned.size());
    rounds_ = static_cast<std::uint32_t>((max_owned + config.batch_size - 1) / config.batch_size);
    if (config.max_batches_per_epoch > 0) rounds_ = std::min(rounds_, config.max_batches_per_epoch);
    for (std::uint32_t w = 0; w < num_workers; ++w) {
      context_.register_replica(w, workers_[w].replica.get());
    }
    if (uses_global_correction(config.method)) {
      correction_ = std::make_unique<GlobalCorrection>(split, features, config.batch_size);
    }
    result_.per_worker_comm.assign(num_workers, dist::CommStats{});
    result_.per_worker_fault.assign(num_workers, dist::FaultStats{});
  }

  /// Restores parameters AND optimizer moments into every replica, which makes
  /// the resumed run bit-identical to an uninterrupted one (per-epoch worker
  /// state is a pure function of (seed, worker, epoch)).
  void resume() {
    std::string resume_path = config_.resume_from;
    if (resume_path == "auto") {
      // Self-healing recovery: newest checkpoint in checkpoint_dir whose
      // structure and checksums validate; corrupt ones are skipped
      // epoch-by-epoch. No valid checkpoint = fresh start, not an error.
      if (config_.checkpoint_dir.empty()) {
        throw std::invalid_argument(
            "train_link_prediction: resume_from=\"auto\" requires checkpoint_dir");
      }
      std::uint32_t skipped = 0;
      const auto latest = nn::find_latest_valid_checkpoint(config_.checkpoint_dir, &skipped);
      result_.fault.checkpoints_skipped_invalid += skipped;
      if (skipped > 0) {
        SPLPG_WARN << "auto-resume skipped " << skipped << " corrupt checkpoint(s) in "
                   << config_.checkpoint_dir;
      }
      resume_path = latest.has_value() ? latest->state_file : std::string();
    }
    if (resume_path.empty()) return;
    std::uint32_t saved_epoch = 0;
    for (Worker& me : workers_) {
      saved_epoch = nn::load_train_state_file(resume_path, *me.replica, *me.optimizer);
    }
    if (saved_epoch >= config_.epochs) {
      throw std::invalid_argument("train_link_prediction: resume_from checkpoint is at epoch " +
                                  std::to_string(saved_epoch) + ", nothing left of the " +
                                  std::to_string(config_.epochs) + " configured epochs");
    }
    start_epoch_ = saved_epoch + 1;
    result_.resumed_from_epoch = saved_epoch;
  }

  /// Installs the comm hook and meters, then takes the starting checkpoint.
  /// The hook comes AFTER any restore: a compressing hook snapshots the
  /// current (possibly resumed) parameters as the reference that compressed
  /// model averaging sends deltas against. A kNone hook is installed too so
  /// the dense baseline's sync payload is metered; its collective arithmetic
  /// is byte-for-byte the hook-free path.
  void start_collectives() {
    if (num_workers_ > 1) {
      dist::CommHookOptions hook_options;
      hook_options.topk_fraction = config_.topk_fraction;
      context_.set_comm_hook(dist::make_comm_hook(config_.comm_hook, hook_options, num_workers_));
      for (std::uint32_t w = 0; w < num_workers_; ++w) {
        context_.attach_meter(w, &workers_[w].view->meter());
      }
    }
    if (config_.checkpoint_every > 0) checkpoint(0, start_epoch_ - 1);
  }

  /// One thread per worker (the calling thread when there is only one); a
  /// real worker failure is rethrown once every thread has joined.
  void run_workers() {
    if (num_workers_ == 1) {
      worker_main(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(num_workers_);
      for (std::uint32_t w = 0; w < num_workers_; ++w) {
        threads.emplace_back([this, w] { worker_main(w); });
      }
      for (auto& thread : threads) thread.join();
    }
    for (const Worker& me : workers_) {
      if (me.error) std::rethrow_exception(me.error);
    }
  }

  [[nodiscard]] std::shared_ptr<nn::LinkPredictionModel> evaluated_model() const {
    return workers_[final_eval_worker_].replica;
  }

 private:
  std::vector<Worker> build_workers(const dist::MasterStore& store) const {
    nn::ModelConfig model_config = config_.model;
    if (model_config.in_dim == 0) model_config.in_dim = store.features().dim();
    const graph::CsrGraph& train_graph = split_.train_graph;
    std::vector<Worker> workers(num_workers_);
    for (std::uint32_t w = 0; w < num_workers_; ++w) {
      Worker& me = workers[w];
      me.view = std::make_unique<dist::WorkerView>(store, w, worker_policy(config_.method));
      me.replica = std::make_shared<nn::LinkPredictionModel>(model_config, config_.seed);
      me.optimizer = std::make_unique<nn::Adam>(*me.replica, config_.learning_rate);
      me.negatives = make_negative_sampler(train_graph, me.view->negative_candidates(),
                                           config_.negative_distribution);
      if (injector_) {
        me.view->attach_faults(injector_.get(), config_.retry);
        me.fallback =
            make_negative_sampler(train_graph, store.part_nodes(w), config_.negative_distribution);
      }
      me.owned =
          num_workers_ == 1 ? split_.train_pos : me.view->owned_positive_edges(split_.train_pos);
      if (config_.worker_threads != 1) {
        me.pool = std::make_unique<util::ThreadPool>(config_.worker_threads);
        me.view->attach_pool(me.pool.get());
      }
    }
    return workers;
  }

  std::vector<std::uint32_t> fanouts() const {
    return config_.fanouts.empty() ? workers_[0].replica->default_fanouts() : config_.fanouts;
  }

  void worker_main(std::uint32_t w) {
    try {
      Worker& me = workers_[w];
      // Route this thread's tensor kernels through the worker's pool (no-op
      // when worker_threads == 1). Scheduling only — bytes are unchanged.
      const tensor::ComputePoolScope compute_scope(me.pool.get());
      const util::Rng worker_rng = util::Rng(config_.seed).split("worker", w);
      sampling::BatchIterator batches(me.owned, config_.batch_size);
      std::uint32_t epoch = start_epoch_;
      while (epoch <= config_.epochs) {
        const util::Stopwatch epoch_watch;
        EpochStreams streams{worker_rng.split("epoch", epoch), worker_rng.split("shuffle", epoch),
                             batches};
        try {
          run_rounds(w, streams, epoch);
        } catch (const WorkerCrashed&) {
          epoch = park_crashed(w, epoch);
          if (epoch == 0) return;
          continue;
        }
        close_epoch(me, epoch, epoch_watch);
        if (stop_requested_.load()) break;  // early stop: all workers agree
        ++epoch;
      }
    } catch (...) {
      fail(w);
    }
  }

  /// One epoch of rounds on worker `w`, in ascending round order.
  void run_rounds(std::uint32_t w, EpochStreams& streams, std::uint32_t epoch) {
    Worker& me = workers_[w];
    streams.batches.reset(streams.shuffle);
    me.epoch_loss = 0.0;
    me.epoch_batches = 0;
    me.rounds_since_average = 0;
    for (std::uint32_t round = 0; round < rounds_; ++round) {
      consume_round(me, produce_round(w, streams, epoch, round));
    }
  }

  /// Stage 1 of one round: crash check, batch draw, and batch preparation
  /// (with the degraded-batch fallback on permanent fetch failure). Throws
  /// WorkerCrashed when the fault plan schedules a crash this round; returns
  /// nothing when the worker owns no training edge.
  std::optional<PreparedBatch> produce_round(std::uint32_t w, EpochStreams& streams,
                                             std::uint32_t epoch, std::uint32_t round) {
    Worker& me = workers_[w];
    if (injector_ && injector_->crash_due(w, epoch, round)) throw WorkerCrashed{};
    std::vector<Edge> batch = streams.batches.next();
    if (batch.empty()) {
      streams.batches.reset(streams.shuffle);
      batch = streams.batches.next();
    }
    if (batch.empty()) return std::nullopt;
    try {
      return prepare_batch(*me.view, sampler_, *me.negatives, batch, streams.rng);
    } catch (const dist::RemoteFetchError&) {
      // Permanent fetch failure: finish the batch on local data (local
      // negative candidates, no remote reads) instead of aborting the worker.
      ++me.view->meter().faults().degraded_batches;
      me.view->set_degraded(true);
      PreparedBatch prep = prepare_batch(*me.view, sampler_, *me.fallback, batch, streams.rng);
      me.view->set_degraded(false);
      return prep;
    }
  }

  /// Stage 2 of one round: compute, synchronize, step.
  void consume_round(Worker& me, std::optional<PreparedBatch> prep) {
    if (prep) {
      me.epoch_loss += compute_batch(*me.replica, std::move(*prep));
      ++me.epoch_batches;
    } else {
      // No training edge: contribute nothing. The all-reduce skips empty
      // gradients; the previous round's averaged ones would be re-sent.
      for (auto& p : me.replica->parameters()) p.mutable_grad() = tensor::Matrix();
    }
    if (config_.sync == dist::SyncMode::kGradientAveraging && num_workers_ > 1) {
      context_.all_reduce_gradients();
    }
    me.optimizer->step();
    // Every worker runs the same rounds, so the counters advance in lockstep
    // and all workers reach each average_models() together. local_steps == 0
    // never matches: the epoch-end flush is then the only average.
    if (averages_models_ && ++me.rounds_since_average == config_.local_steps) {
      context_.average_models();
      me.rounds_since_average = 0;
    }
  }

  /// The epoch boundary: flush the model average, LLCG correction, then one
  /// serial section for bookkeeping, evaluation, checkpoint and recovery.
  void close_epoch(Worker& me, std::uint32_t epoch, const util::Stopwatch& epoch_watch) {
    // Evaluation and checkpoints below always see the synchronized model.
    if (averages_models_ && me.rounds_since_average > 0) context_.average_models();
    if (correction_) context_.run_serial([&] { correct_globally(epoch); });
    context_.run_serial([&] {
      const std::uint32_t src = context_.first_active();
      record_epoch(epoch, epoch_watch, src);
      if (config_.checkpoint_every > 0 && epoch % config_.checkpoint_every == 0) {
        checkpoint(src, epoch);
      }
      recover_crashed(epoch, src);
    });
  }

  /// LLCG: correct the first active replica on the full graph, then broadcast
  /// it to the other active workers.
  void correct_globally(std::uint32_t epoch) {
    const std::uint32_t src = context_.first_active();
    nn::LinkPredictionModel& model = *workers_[src].replica;
    util::Rng correction_rng = util::Rng(config_.seed).split("llcg", epoch);
    nn::Sgd corrector(model, config_.learning_rate);
    correction_->batches.reset(correction_rng);
    for (std::uint32_t b = 0; b < config_.llcg_correction_batches; ++b) {
      const auto batch = correction_->batches.next();
      if (batch.empty()) break;
      (void)compute_batch(model, prepare_batch(correction_->view, sampler_,
                                               *correction_->negatives, batch, correction_rng));
      corrector.step();
    }
    for (std::uint32_t other = 0; other < num_workers_; ++other) {
      if (other != src && context_.is_active(other)) {
        nn::copy_parameters(model, *workers_[other].replica);
      }
    }
  }

  /// Epoch bookkeeping (loss, drained meters) and, when due, evaluation of
  /// `src`'s replica with early-stopping accounting.
  void record_epoch(std::uint32_t epoch, const util::Stopwatch& epoch_watch, std::uint32_t src) {
    EpochRecord record;
    record.epoch = epoch;
    std::uint64_t batches_total = 0;
    for (std::uint32_t i = 0; i < num_workers_; ++i) {
      Worker& worker = workers_[i];
      record.mean_loss += worker.epoch_loss;
      batches_total += worker.epoch_batches;
      const dist::CommStats epoch_comm = worker.view->meter().drain();
      record.comm_gigabytes += epoch_comm.total_gigabytes();
      record.sync_gigabytes += epoch_comm.sync_gigabytes();
      result_.comm += epoch_comm;
      result_.per_worker_comm[i] += epoch_comm;
      const dist::FaultStats epoch_fault = worker.view->meter().drain_faults();
      result_.fault += epoch_fault;
      result_.per_worker_fault[i] += epoch_fault;
    }
    record.mean_loss =
        batches_total > 0 ? record.mean_loss / static_cast<double>(batches_total) : 0.0;
    result_.total_batches += batches_total;
    record.seconds = epoch_watch.seconds();

    const bool evaluate_now =
        (config_.eval_every > 0 && epoch % config_.eval_every == 0) || epoch == config_.epochs;
    if (evaluate_now) {
      const EvalResult eval = evaluator_.evaluate(*workers_[src].replica);
      final_eval_worker_ = src;
      record.val_hits = eval.val_hits;
      record.test_hits = eval.test_hits;
      record.test_auc = eval.test_auc;
      result_.eval_k = eval.k;
      if (eval.val_hits > result_.best_val_hits) {
        evaluations_since_best_ = 0;
      } else {
        ++evaluations_since_best_;
      }
      if (eval.val_hits >= result_.best_val_hits) {
        result_.best_val_hits = eval.val_hits;
        result_.test_hits = eval.test_hits;
        result_.test_auc = eval.test_auc;
      }
      if (config_.patience > 0 && evaluations_since_best_ >= config_.patience) {
        stop_requested_.store(true);
      }
    }
    result_.history.push_back(record);
  }

  /// Keeps `src`'s train state in memory and, with checkpoint_dir set, on
  /// disk. Runs on the master before the workers start, else in a serial
  /// section.
  void checkpoint(std::uint32_t src, std::uint32_t epoch) {
    const Worker& worker = workers_[src];
    std::ostringstream out;
    nn::save_train_state(out, *worker.replica, *worker.optimizer, epoch);
    checkpoint_buffer_ = out.str();
    if (config_.checkpoint_dir.empty()) return;
    try {
      nn::write_checkpoint(config_.checkpoint_dir, *worker.replica, *worker.optimizer, epoch,
                           config_.keep_checkpoints);
    } catch (const io::SimulatedCrash&) {
      // Simulated machine death: must kill the run, never be healed. The stop
      // is published here, INSIDE the barrier's serial section, so the workers
      // released by this exception all see it before starting another epoch —
      // a dead machine writes no further checkpoints.
      stop_requested_.store(true);
      throw;
    } catch (const std::exception& error) {
      // Self-healing: a failed write (full disk, failed rename) degrades
      // durability, not training — checkpoint_buffer_ still holds this state
      // for crash recovery, and AtomicFile guarantees the previous on-disk
      // checkpoint survived intact.
      ++result_.fault.checkpoint_write_failures;
      SPLPG_WARN << "checkpoint write for epoch " << epoch
                 << " failed (training continues): " << error.what();
    }
  }

  /// Restores crashed replicas from the latest checkpoint and rejoins them for
  /// the next epoch, or releases them if training is over.
  void recover_crashed(std::uint32_t epoch, std::uint32_t src) {
    const bool final_epoch = epoch >= config_.epochs || stop_requested_.load();
    {
      const std::lock_guard<std::mutex> lock(recovery_mutex_);
      for (std::uint32_t i = 0; i < num_workers_; ++i) {
        Worker& worker = workers_[i];
        if (!worker.crash_pending) continue;
        worker.crash_pending = false;
        // A respawned worker gets a fresh optimizer, then the full
        // checkpointed train state (parameters + Adam moments) is loaded into
        // it — the respawn continues exactly where the checkpoint left off.
        worker.optimizer = std::make_unique<nn::Adam>(*worker.replica, config_.learning_rate);
        if (!checkpoint_buffer_.empty()) {
          std::istringstream in(checkpoint_buffer_);
          nn::load_train_state(in, *worker.replica, *worker.optimizer);
        } else {
          nn::copy_parameters(*workers_[src].replica, *worker.replica);
        }
        if (final_epoch) continue;
        context_.rejoin(i);
        worker.resume_epoch = epoch + 1;
        ++result_.fault.recoveries;
        ++result_.per_worker_fault[i].recoveries;
        SPLPG_INFO << "worker " << i << " respawned from checkpoint after epoch " << epoch;
      }
      if (final_epoch) training_done_ = true;
    }
    recovery_cv_.notify_all();
  }

  /// Injected crash: publish it, leave the collectives (the survivors'
  /// barriers shrink), and wait for the epoch-boundary respawn. Returns the
  /// epoch to continue from, or 0 when training ended meanwhile.
  std::uint32_t park_crashed(std::uint32_t w, std::uint32_t epoch) {
    Worker& me = workers_[w];
    me.view->set_degraded(false);
    ++me.view->meter().faults().crashes;
    SPLPG_WARN << "worker " << w << " crashed (injected) in epoch " << epoch;
    {
      const std::lock_guard<std::mutex> lock(recovery_mutex_);
      me.crash_pending = true;
    }
    context_.leave(w);
    std::unique_lock<std::mutex> lock(recovery_mutex_);
    recovery_cv_.wait(lock, [&] { return training_done_ || me.resume_epoch != 0; });
    if (training_done_) return 0;
    return std::exchange(me.resume_epoch, 0);
  }

  /// A real failure (not an injected fault): record it, leave the collectives
  /// so survivors cannot deadlock, and request a stop. run_workers rethrows
  /// after every thread has joined. Workers parked for crash recovery are
  /// released too — the recovery serial section may never run again (e.g. a
  /// simulated machine death mid-checkpoint).
  void fail(std::uint32_t w) {
    workers_[w].error = std::current_exception();
    SPLPG_ERROR << "worker " << w << " failed; dropping from collectives";
    stop_requested_.store(true);
    context_.leave(w);
    {
      const std::lock_guard<std::mutex> lock(recovery_mutex_);
      training_done_ = true;
    }
    recovery_cv_.notify_all();
  }

  const sampling::LinkSplit& split_;
  const TrainConfig& config_;
  TrainResult& result_;
  const std::uint32_t num_workers_;
  /// Model averaging runs every `local_steps` rounds (0 = only the flush at
  /// the end of the epoch); gradient averaging runs every round instead.
  const bool averages_models_;
  std::unique_ptr<dist::FaultInjector> injector_;
  std::vector<Worker> workers_;
  const sampling::NeighborSampler sampler_;
  const Evaluator evaluator_;
  /// Synchronization rounds per epoch: every worker runs every round, and
  /// workers with fewer owned edges wrap their batch iterator.
  std::uint32_t rounds_ = 0;
  dist::DistContext context_;
  std::unique_ptr<GlobalCorrection> correction_;  // LLCG only
  std::uint32_t start_epoch_ = 1;

  // Serial-section state (or master-only before the workers start).
  /// Latest full train state (parameters + optimizer moments + epoch) for
  /// crash recovery; on-disk copies go to checkpoint_dir when it is set.
  std::string checkpoint_buffer_;
  std::uint32_t evaluations_since_best_ = 0;
  /// The replica the most recent evaluation scored. After a worker-0 crash
  /// the survivors' replica and a checkpoint-restored worker 0 can disagree,
  /// so the returned model must be the evaluated one.
  std::uint32_t final_eval_worker_ = 0;

  std::atomic<bool> stop_requested_{false};
  /// Crash/recovery hand-off: a crashed worker leaves the collectives and
  /// parks until the epoch-boundary serial section restores and rejoins it,
  /// or training ends. Guards training_done_ and every Worker's
  /// crash_pending / resume_epoch.
  std::mutex recovery_mutex_;
  std::condition_variable recovery_cv_;
  bool training_done_ = false;
};

}  // namespace

TrainResult train_link_prediction(const sampling::LinkSplit& split,
                                  const graph::FeatureStore& features,
                                  const TrainConfig& config) {
  const util::Stopwatch total_watch;
  // batch_size divides the round count, and zero epochs would report the
  // untrained model's AUC as a result.
  if (config.epochs == 0) {
    throw std::invalid_argument("train_link_prediction: epochs must be >= 1");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_link_prediction: batch_size must be >= 1");
  }
  if (config.patience > 0 && config.eval_every == 0) {
    throw std::invalid_argument(
        "train_link_prediction: patience > 0 requires eval_every > 0");
  }
  // Layer 1's weights have in_dim rows; its GEMMs read features.dim() of them.
  if (config.model.in_dim != 0 && config.model.in_dim != features.dim()) {
    throw std::invalid_argument("train_link_prediction: model.in_dim (" +
                                std::to_string(config.model.in_dim) +
                                ") != features.dim() (" + std::to_string(features.dim()) + ")");
  }
  TrainResult result;
  const std::uint32_t num_workers =
      config.method == Method::kCentralized ? 1 : std::max(1U, config.num_partitions);
  const dist::MasterStore store =
      partition_and_sparsify(split, features, config, num_workers, result);

  // Storage-plane fault injection: installed process-globally for the run so
  // every checkpoint write (AtomicFile) and resume read flows through it —
  // including the ones made from barrier serial sections on worker threads.
  std::unique_ptr<io::StorageFaultInjector> storage_injector;
  if (!config.storage_faults.empty()) {
    storage_injector =
        std::make_unique<io::StorageFaultInjector>(config.storage_faults, config.seed);
  }
  const io::StorageFaultScope storage_scope(storage_injector.get());

  TrainingRun run(split, features, config, store, num_workers, result);
  if (!config.resume_from.empty()) run.resume();
  run.start_collectives();
  run.run_workers();

  // Normalize by the epochs actually run — early stopping (patience) can end
  // training with history.size() < config.epochs, and dividing by the
  // configured count would understate the per-epoch cost.
  if (!result.history.empty()) {
    const auto epochs_run = static_cast<double>(result.history.size());
    result.comm_gigabytes_per_epoch = result.comm.total_gigabytes() / epochs_run;
    result.sync_gigabytes_per_epoch = result.comm.sync_gigabytes() / epochs_run;
  }
  if (storage_injector) {
    const auto storage_stats = storage_injector->stats();
    result.fault.storage_write_faults += storage_stats.write_faults();
    result.fault.storage_read_faults += storage_stats.read_faults();
  }
  result.train_seconds = total_watch.seconds();
  result.model = run.evaluated_model();
  return result;
}

}  // namespace splpg::core
