#include "core/trainer.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "dist/worker_view.hpp"
#include "nn/checkpoint.hpp"
#include "nn/optimizer.hpp"
#include "sampling/negative_sampler.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sparsify/sparsifier.hpp"
#include "tensor/parallel.hpp"
#include "util/bounded_queue.hpp"
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
/// needs, with all RNG- and WorkerView-touching work already done. Splitting
/// the batch step here is what lets the pipeline overlap batch i+1's
/// sampling (producer thread) with batch i's compute (worker thread) without
/// perturbing any random stream.
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

/// Stage 2: forward, loss, backward. RNG-free and view-free, so it can run
/// while the producer is already sampling the next batch. Returns the loss.
float compute_batch(nn::LinkPredictionModel& model, PreparedBatch prep) {
  const auto embeddings = model.encode(prep.cg, std::move(prep.input_features));
  const auto logits = model.score(embeddings, prep.pairs);
  auto loss = bce_with_logits(logits, prep.labels);
  model.zero_grad();
  loss.backward();
  return loss.item();
}

/// One worker's training step on one mini-batch (both stages). Returns the
/// loss.
float train_batch(dist::WorkerView& view, nn::LinkPredictionModel& model,
                  const sampling::NeighborSampler& sampler,
                  const sampling::PerSourceNegativeSampler& negatives,
                  std::span<const Edge> positives, util::Rng& rng) {
  return compute_batch(model, prepare_batch(view, sampler, negatives, positives, rng));
}

/// One pipeline hand-off: a prepared round (or the reason there isn't one).
struct PipelineItem {
  PreparedBatch prep;
  bool has_batch = false;       // false = the round's batch drew empty
  bool crash = false;           // the fault plan scheduled a crash this round
  std::exception_ptr error;     // a real producer failure
};

/// Bounded queue for pipeline hand-off (util::BoundedQueue, shared with the
/// serving request queue). Capacity caps how far the producer can run ahead
/// (memory bound); cancel() unblocks a producer stuck in push() when the
/// consumer dies early.
using BoundedQueue = util::BoundedQueue<PipelineItem>;

/// Joins the epoch's producer thread on every exit path (normal, injected
/// crash, real error) so it never outlives the queue or the epoch state it
/// captures by reference.
struct ProducerGuard {
  BoundedQueue& queue;
  std::thread& producer;
  ~ProducerGuard() {
    queue.cancel();
    if (producer.joinable()) producer.join();
  }
};

}  // namespace

TrainResult train_link_prediction(const sampling::LinkSplit& split,
                                  const graph::FeatureStore& features,
                                  const TrainConfig& config) {
  const util::Stopwatch total_watch;
  TrainResult result;
  result.method = config.method;

  if (config.sync == dist::SyncMode::kLocalSgd && config.local_steps == 0) {
    throw std::invalid_argument("train_link_prediction: local_steps must be >= 1 under kLocalSgd");
  }
  if (config.patience > 0 && config.eval_every == 0) {
    throw std::invalid_argument(
        "train_link_prediction: patience > 0 requires eval_every > 0");
  }

  const std::uint32_t num_workers =
      config.method == Method::kCentralized ? 1 : std::max(1U, config.num_partitions);

  // ---- master: partition ----
  util::Rng master_rng = util::Rng(config.seed).split("master");
  const auto partitioner = method_partitioner(config.method, config.super_clusters_per_part);
  partition::PartitionResult parts =
      partitioner->partition(split.train_graph, num_workers, master_rng);
  result.partition_edge_cut = partition::edge_cut(split.train_graph, parts);
  result.partition_balance = partition::balance(split.train_graph, parts);

  dist::MasterStore store(split.train_graph, &features, std::move(parts));

  // ---- master: sparsify (SpLPG only) ----
  if (uses_sparsification(config.method)) {
    sparsify::SparsifyConfig sparsify_config;
    sparsify_config.alpha = config.alpha;
    sparsify_config.num_threads = config.num_threads;
    const auto sparsifier = sparsify::make_sparsifier(config.sparsifier, sparsify_config);
    std::vector<sparsify::SparsifyStats> stats;
    util::Rng sparsify_rng = util::Rng(config.seed).split("sparsify");
    std::vector<std::uint32_t> assignment(store.graph().num_nodes());
    for (NodeId v = 0; v < store.graph().num_nodes(); ++v) assignment[v] = store.part_of(v);
    const util::Stopwatch sparsify_watch;
    store.set_sparsified(sparsifier->sparsify_partitions(store.graph(), assignment, num_workers,
                                                         sparsify_rng, &stats));
    result.sparsify_seconds = sparsify_watch.seconds();
    for (const auto& s : stats) result.sparsify_cpu_seconds += s.cpu_seconds;
  }

  // ---- master: fault injection ----
  std::unique_ptr<dist::FaultInjector> injector;
  if (!config.faults.empty()) {
    injector = std::make_unique<dist::FaultInjector>(config.faults, config.seed, num_workers);
  }

  // Storage-plane fault injection: installed process-globally for the run so
  // every checkpoint write (AtomicFile) and resume read flows through it —
  // including the ones issued from barrier serial sections on worker threads.
  std::unique_ptr<io::StorageFaultInjector> storage_injector;
  if (!config.storage_faults.empty()) {
    storage_injector =
        std::make_unique<io::StorageFaultInjector>(config.storage_faults, config.seed);
  }
  const io::StorageFaultScope storage_scope(storage_injector.get());

  // ---- master: per-worker state ----
  nn::ModelConfig model_config = config.model;
  if (model_config.in_dim == 0) model_config.in_dim = features.dim();

  const dist::WorkerPolicy policy = worker_policy(config.method);
  std::vector<std::unique_ptr<dist::WorkerView>> views;
  std::vector<std::shared_ptr<nn::LinkPredictionModel>> replicas;
  std::vector<std::unique_ptr<nn::Adam>> optimizers;
  std::vector<std::unique_ptr<sampling::PerSourceNegativeSampler>> negative_samplers;
  // Local-only fallback samplers for degraded batches (permanent fetch
  // failure): same rejection oracle, candidates restricted to the worker's
  // own partition.
  std::vector<std::unique_ptr<sampling::PerSourceNegativeSampler>> fallback_samplers;
  std::vector<std::vector<Edge>> owned;
  views.reserve(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    views.push_back(std::make_unique<dist::WorkerView>(store, w, policy));
    if (injector) views[w]->attach_faults(injector.get(), config.retry);
    replicas.push_back(std::make_shared<nn::LinkPredictionModel>(model_config, config.seed));
    optimizers.push_back(std::make_unique<nn::Adam>(*replicas[w], config.learning_rate));
    // The rejection oracle uses the training graph: a worker always knows the
    // full neighbor list of its own (source) nodes.
    const auto& train_graph = split.train_graph;
    auto candidates = views[w]->negative_candidates();
    auto candidate_weights = sampling::negative_candidate_weights(
        config.negative_distribution, train_graph, candidates);
    negative_samplers.push_back(std::make_unique<sampling::PerSourceNegativeSampler>(
        std::move(candidates),
        [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); },
        std::move(candidate_weights)));
    if (injector) {
      auto local_candidates = store.part_nodes(w);
      auto local_weights = sampling::negative_candidate_weights(config.negative_distribution,
                                                               train_graph, local_candidates);
      fallback_samplers.push_back(std::make_unique<sampling::PerSourceNegativeSampler>(
          std::move(local_candidates),
          [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); },
          std::move(local_weights)));
    } else {
      fallback_samplers.push_back(nullptr);
    }
    owned.push_back(num_workers == 1
                        ? std::vector<Edge>(split.train_pos.begin(), split.train_pos.end())
                        : views[w]->owned_positive_edges(split.train_pos));
  }

  // Per-worker compute pools (worker_threads != 1): shared by the sampler's
  // chunk fanout picks and, via ComputePoolScope, the row-blocked tensor
  // kernels. One pool per worker keeps the worker streams independent.
  std::vector<std::unique_ptr<util::ThreadPool>> worker_pools(num_workers);
  if (config.worker_threads != 1) {
    for (std::uint32_t w = 0; w < num_workers; ++w) {
      worker_pools[w] = std::make_unique<util::ThreadPool>(config.worker_threads);
      views[w]->attach_pool(worker_pools[w].get());
    }
  }

  const auto fanouts = config.fanouts.empty() ? replicas[0]->default_fanouts() : config.fanouts;
  const sampling::NeighborSampler sampler(fanouts);
  const Evaluator evaluator(split, features, fanouts, config.eval_k, 512, 7,
                            config.num_threads);

  // Synchronization rounds per epoch: every worker participates in every
  // round; workers with fewer owned edges wrap their iterator.
  std::size_t max_owned = 1;
  for (const auto& edges : owned) max_owned = std::max(max_owned, edges.size());
  std::uint32_t rounds = static_cast<std::uint32_t>(
      (max_owned + config.batch_size - 1) / config.batch_size);
  if (config.max_batches_per_epoch > 0) rounds = std::min(rounds, config.max_batches_per_epoch);

  dist::DistContext context(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) context.register_replica(w, replicas[w].get());

  // ---- master: resume ----
  // Restoring parameters AND optimizer moments into every replica makes the
  // resumed run bit-identical to an uninterrupted one (per-epoch worker
  // state is a pure function of (seed, worker, epoch)).
  std::uint32_t start_epoch = 1;
  if (!config.resume_from.empty()) {
    std::string resume_path = config.resume_from;
    if (resume_path == "auto") {
      // Self-healing recovery: newest checkpoint in checkpoint_dir whose
      // structure and checksums validate; corrupt ones are skipped
      // epoch-by-epoch. No valid checkpoint = fresh start, not an error.
      if (config.checkpoint_dir.empty()) {
        throw std::invalid_argument(
            "train_link_prediction: resume_from=\"auto\" requires checkpoint_dir");
      }
      std::uint32_t skipped = 0;
      const auto latest =
          nn::find_latest_valid_checkpoint(config.checkpoint_dir, &skipped);
      result.fault.checkpoints_skipped_invalid += skipped;
      if (skipped > 0) {
        SPLPG_WARN << "auto-resume skipped " << skipped << " corrupt checkpoint(s) in "
                   << config.checkpoint_dir;
      }
      resume_path = latest.has_value() ? latest->state_file : std::string();
    }
    if (!resume_path.empty()) {
      std::uint32_t saved_epoch = 0;
      for (std::uint32_t w = 0; w < num_workers; ++w) {
        saved_epoch = nn::load_train_state_file(resume_path, *replicas[w], *optimizers[w]);
      }
      if (saved_epoch >= config.epochs) {
        throw std::invalid_argument("train_link_prediction: resume_from checkpoint is at epoch " +
                                    std::to_string(saved_epoch) + ", nothing left of the " +
                                    std::to_string(config.epochs) + " configured epochs");
      }
      start_epoch = saved_epoch + 1;
      result.resumed_from_epoch = saved_epoch;
    }
  }

  // ---- master: communication regime ----
  // The hook is installed AFTER replica registration and any checkpoint
  // restore: for compressing hooks set_comm_hook snapshots the current
  // (possibly resumed) parameters as the reference model that compressed
  // model averaging sends deltas against. A kNone hook is installed too so
  // the dense baseline's sync payload is metered for regime comparisons —
  // its collective arithmetic is byte-for-byte the hook-free path.
  if (num_workers > 1) {
    dist::CommHookOptions hook_options;
    hook_options.topk_fraction = config.topk_fraction;
    context.set_comm_hook(dist::make_comm_hook(config.comm_hook, hook_options, num_workers));
    for (std::uint32_t w = 0; w < num_workers; ++w) {
      context.attach_meter(w, &views[w]->meter());
    }
  }

  // ---- master: checkpointing ----
  // The latest full train state (parameters + optimizer moments + epoch) is
  // kept serialized in memory for crash recovery; on-disk copies are written
  // when checkpoint_dir is set. Written only by the master (before spawning)
  // and by barrier serial sections.
  std::atomic<bool> stop_requested{false};
  std::string checkpoint_buffer;
  auto write_checkpoint = [&](std::uint32_t src, std::uint32_t epoch) {
    std::ostringstream out;
    nn::save_train_state(out, *replicas[src], *optimizers[src], epoch);
    checkpoint_buffer = out.str();
    if (config.checkpoint_dir.empty()) return;
    try {
      std::filesystem::create_directories(config.checkpoint_dir);
      nn::save_parameters_file(nn::checkpoint_model_file(config.checkpoint_dir, epoch),
                               *replicas[src]);
      nn::save_train_state_file(nn::checkpoint_state_file(config.checkpoint_dir, epoch),
                                *replicas[src], *optimizers[src], epoch);
      if (config.keep_checkpoints > 0) {
        (void)nn::gc_checkpoints(config.checkpoint_dir, config.keep_checkpoints);
      }
      nn::write_checkpoint_manifest(config.checkpoint_dir);
    } catch (const io::SimulatedCrash&) {
      // Simulated machine death: must kill the run, never be healed. The
      // stop is published here, INSIDE the barrier's serial section, so the
      // workers released by this exception all see it before starting
      // another epoch — a dead machine writes no further checkpoints.
      stop_requested.store(true);
      throw;
    } catch (const std::exception& error) {
      // Self-healing: a failed checkpoint write (full disk, failed rename)
      // degrades durability, not training — the in-memory checkpoint_buffer
      // still holds this state for crash recovery, and AtomicFile guarantees
      // the previous on-disk checkpoint survived intact.
      ++result.fault.checkpoint_write_failures;
      SPLPG_WARN << "checkpoint write for epoch " << epoch
                 << " failed (training continues): " << error.what();
    }
  };
  if (config.checkpoint_every > 0) write_checkpoint(0, start_epoch - 1);

  // Shared per-epoch accumulators (written by workers, read in the barrier's
  // serial section while all other threads are blocked).
  std::vector<double> epoch_loss(num_workers, 0.0);
  std::vector<std::uint64_t> epoch_batches(num_workers, 0);
  std::vector<std::exception_ptr> errors(num_workers);
  result.per_worker_comm.assign(num_workers, dist::CommStats{});
  result.per_worker_fault.assign(num_workers, dist::FaultStats{});
  std::uint32_t evaluations_since_best = 0;  // serial-section only
  // Which replica the most recent evaluation scored (serial-section only,
  // read by the master after join). After a worker-0 crash the survivors'
  // replica and a checkpoint-restored replicas[0] can disagree, so the
  // returned model must be the evaluated one.
  std::uint32_t final_eval_worker = 0;

  // Crash/recovery coordination. A crashed worker publishes its crash,
  // leaves the collectives, and parks until the epoch-boundary serial
  // section restores its replica from the latest checkpoint and rejoins it
  // (or training ends).
  const auto crash_pending = std::make_unique<std::atomic<bool>[]>(num_workers);
  for (std::uint32_t w = 0; w < num_workers; ++w) crash_pending[w].store(false);
  std::mutex recovery_mutex;
  std::condition_variable recovery_cv;
  std::vector<std::uint32_t> resume_epoch(num_workers, 0);
  bool training_done = false;  // guarded by recovery_mutex

  // First worker still participating in collectives — the replica used for
  // evaluation, checkpoints, and LLCG correction (worker 0 on a fault-free
  // run).
  auto first_active = [&context]() -> std::uint32_t {
    for (std::uint32_t w = 0; w < context.num_workers(); ++w) {
      if (context.is_active(w)) return w;
    }
    return 0;
  };

  auto worker_main = [&](std::uint32_t w) {
    try {
      // Route this thread's tensor kernels through the worker's pool (no-op
      // when worker_threads == 1). Scheduling only — bytes are unchanged.
      const tensor::ComputePoolScope compute_scope(worker_pools[w].get());
      util::Rng worker_rng = util::Rng(config.seed).split("worker", w);
      sampling::BatchIterator batches(owned[w], config.batch_size);

      std::uint32_t epoch = start_epoch;
      while (epoch <= config.epochs) {
        const util::Stopwatch epoch_watch;
        util::Rng rng = worker_rng.split("epoch", epoch);
        // Reshuffle per epoch from an epoch-indexed stream: all within-epoch
        // randomness is a pure function of (seed, worker, epoch), which is
        // what makes checkpoint resume (and crash recovery) bit-exact.
        util::Rng shuffle_rng = worker_rng.split("shuffle", epoch);
        batches.reset(shuffle_rng);
        epoch_loss[w] = 0.0;
        epoch_batches[w] = 0;
        // Local-SGD: rounds since the last global correction. Every worker
        // runs the same `rounds` count per epoch, so the counters advance in
        // lockstep and all workers reach each average_models() together.
        std::uint32_t steps_since_sync = 0;

        // Stage 1 of one round: crash check, batch draw, and batch
        // preparation (with the degraded-batch fallback on permanent fetch
        // failure). Shared verbatim by the serial loop and the pipeline
        // producer so both execute identical statements in identical order —
        // the basis of the pipeline's bit-identity.
        auto produce_round = [&](std::uint32_t round) {
          PipelineItem item;
          if (injector && injector->crash_due(w, epoch, round)) {
            item.crash = true;
            return item;
          }
          std::vector<Edge> batch = batches.next();
          if (batch.empty()) {
            batches.reset(shuffle_rng);
            batch = batches.next();
          }
          if (!batch.empty()) {
            try {
              item.prep =
                  prepare_batch(*views[w], sampler, *negative_samplers[w], batch, rng);
            } catch (const dist::RemoteFetchError&) {
              // Permanent fetch failure: finish the batch on local data
              // (local negative candidates, no remote reads) instead of
              // aborting the worker.
              ++views[w]->meter().faults().degraded_batches;
              views[w]->set_degraded(true);
              item.prep =
                  prepare_batch(*views[w], sampler, *fallback_samplers[w], batch, rng);
              views[w]->set_degraded(false);
            }
            item.has_batch = true;
          }
          return item;
        };

        // Stage 2 of one round: compute, synchronize, step. Runs on the
        // worker thread in ascending round order in both modes.
        auto consume_round = [&](PipelineItem item) {
          if (item.error) std::rethrow_exception(item.error);
          if (item.crash) throw WorkerCrashed{};
          if (item.has_batch) {
            epoch_loss[w] += compute_batch(*replicas[w], std::move(item.prep));
            ++epoch_batches[w];
          }
          if (config.sync == dist::SyncMode::kGradientAveraging && num_workers > 1) {
            context.all_reduce_gradients();
          }
          optimizers[w]->step();
          if (config.sync == dist::SyncMode::kLocalSgd && num_workers > 1 &&
              ++steps_since_sync >= config.local_steps) {
            context.average_models();
            steps_since_sync = 0;
          }
        };

        try {
          if (config.pipeline_batches > 0) {
            // Two-stage pipeline: a dedicated producer thread runs stage 1
            // for round i+1 (and ahead, up to the queue bound) while this
            // thread runs stage 2 for round i. All RNG and WorkerView state
            // lives in stage 1 on the single producer thread, in serial
            // round order, so the hand-off cannot perturb any stream. A
            // scheduled crash or producer failure is delivered in-order as a
            // marker item; the producer stops at it, and stage 2 raises it
            // after finishing every earlier round — exactly the serial
            // semantics.
            BoundedQueue queue(config.pipeline_batches);
            std::thread producer([&] {
              for (std::uint32_t round = 0; round < rounds; ++round) {
                PipelineItem item;
                try {
                  item = produce_round(round);
                } catch (...) {
                  item.error = std::current_exception();
                }
                const bool stop = item.crash || item.error != nullptr;
                if (!queue.push(std::move(item)) || stop) return;
              }
            });
            const ProducerGuard guard{queue, producer};
            for (std::uint32_t round = 0; round < rounds; ++round) {
              // The consumer pops at most as many items as the producer
              // pushes (it stops at a crash/error marker), so pop() never
              // drains a finished producer dry: value() always holds.
              consume_round(std::move(queue.pop().value()));
            }
          } else {
            for (std::uint32_t round = 0; round < rounds; ++round) {
              consume_round(produce_round(round));
            }
          }
        } catch (const WorkerCrashed&) {
          // Injected crash: publish, leave the collectives (survivors'
          // barriers shrink), and park until the epoch-boundary recovery
          // respawns this worker from the latest checkpoint.
          views[w]->set_degraded(false);
          ++views[w]->meter().faults().crashes;
          crash_pending[w].store(true, std::memory_order_release);
          SPLPG_WARN << "worker " << w << " crashed (injected) in epoch " << epoch;
          context.leave(w);
          std::unique_lock<std::mutex> lock(recovery_mutex);
          recovery_cv.wait(lock, [&] { return training_done || resume_epoch[w] != 0; });
          if (training_done) return;
          epoch = resume_epoch[w];
          resume_epoch[w] = 0;
          continue;
        }

        if (config.sync == dist::SyncMode::kModelAveraging && num_workers > 1) {
          context.average_models();
        }
        // Local-SGD catch-up: when the epoch's round count is not a multiple
        // of H, correct the straggling local steps now so evaluation and
        // checkpoints below always see the synchronized global model.
        if (config.sync == dist::SyncMode::kLocalSgd && num_workers > 1 &&
            steps_since_sync != 0) {
          context.average_models();
          steps_since_sync = 0;
        }

        // LLCG: server-side correction on the full graph, then broadcast.
        if (uses_global_correction(config.method)) {
          context.run_serial([&] {
            const std::uint32_t src = first_active();
            dist::WorkerPolicy central{true, dist::RemoteAdjacency::kNone,
                                       dist::NegativeScope::kGlobal};
            partition::PartitionResult one_part;
            one_part.num_parts = 1;
            one_part.assignment.assign(store.graph().num_nodes(), 0);
            dist::MasterStore central_store(split.train_graph, &features, std::move(one_part));
            dist::WorkerView central_view(central_store, 0, central);
            std::vector<NodeId> all_nodes(store.graph().num_nodes());
            for (NodeId v = 0; v < all_nodes.size(); ++v) all_nodes[v] = v;
            const auto& train_graph = split.train_graph;
            const sampling::PerSourceNegativeSampler central_negatives(
                std::move(all_nodes),
                [&train_graph](NodeId u, NodeId v) { return train_graph.has_edge(u, v); });
            util::Rng correction_rng = util::Rng(config.seed).split("llcg", epoch);
            nn::Sgd corrector(*replicas[src], config.learning_rate);
            std::vector<Edge> train_edges(split.train_pos.begin(), split.train_pos.end());
            sampling::BatchIterator correction_batches(train_edges, config.batch_size);
            correction_batches.reset(correction_rng);
            for (std::uint32_t b = 0; b < config.llcg_correction_batches; ++b) {
              const auto batch = correction_batches.next();
              if (batch.empty()) break;
              train_batch(central_view, *replicas[src], sampler, central_negatives, batch,
                          correction_rng);
              corrector.step();
            }
            for (std::uint32_t other = 0; other < num_workers; ++other) {
              if (other != src && context.is_active(other)) {
                nn::copy_parameters(*replicas[src], *replicas[other]);
              }
            }
          });
        }

        // Epoch bookkeeping, optional evaluation, checkpointing, and crash
        // recovery (single thread; survivors blocked at the barrier).
        context.run_serial([&] {
          EpochRecord record;
          record.epoch = epoch;
          std::uint64_t batches_total = 0;
          for (std::uint32_t i = 0; i < num_workers; ++i) {
            record.mean_loss += epoch_loss[i];
            batches_total += epoch_batches[i];
            const dist::CommStats epoch_comm = views[i]->meter().drain();
            record.comm_gigabytes += epoch_comm.total_gigabytes();
            record.sync_gigabytes += epoch_comm.sync_gigabytes();
            result.comm += epoch_comm;
            result.per_worker_comm[i] += epoch_comm;
            const dist::FaultStats epoch_fault = views[i]->meter().drain_faults();
            result.fault += epoch_fault;
            result.per_worker_fault[i] += epoch_fault;
          }
          record.mean_loss =
              batches_total > 0 ? record.mean_loss / static_cast<double>(batches_total) : 0.0;
          result.total_batches += batches_total;
          record.seconds = epoch_watch.seconds();

          const std::uint32_t src = first_active();
          const bool evaluate_now =
              (config.eval_every > 0 && epoch % config.eval_every == 0) ||
              epoch == config.epochs;
          if (evaluate_now) {
            const EvalResult eval = evaluator.evaluate(*replicas[src]);
            final_eval_worker = src;
            record.val_hits = eval.val_hits;
            record.test_hits = eval.test_hits;
            record.test_auc = eval.test_auc;
            result.eval_k = eval.k;
            if (eval.val_hits > result.best_val_hits) {
              evaluations_since_best = 0;
            } else {
              ++evaluations_since_best;
            }
            if (eval.val_hits >= result.best_val_hits) {
              result.best_val_hits = eval.val_hits;
              result.test_hits = eval.test_hits;
              result.test_auc = eval.test_auc;
            }
            if (config.patience > 0 && evaluations_since_best >= config.patience) {
              stop_requested.store(true);
            }
          }
          result.history.push_back(record);

          // Per-epoch checkpoint of the synchronized survivor state.
          if (config.checkpoint_every > 0 && epoch % config.checkpoint_every == 0) {
            write_checkpoint(src, epoch);
          }

          // Recovery: restore crashed replicas from the latest checkpoint
          // and rejoin them for the next epoch (or release them if training
          // is over).
          const bool final_epoch = epoch >= config.epochs || stop_requested.load();
          {
            std::lock_guard<std::mutex> lock(recovery_mutex);
            for (std::uint32_t i = 0; i < num_workers; ++i) {
              if (!crash_pending[i].load(std::memory_order_acquire)) continue;
              crash_pending[i].store(false, std::memory_order_relaxed);
              // A respawned worker gets a fresh optimizer, then the full
              // checkpointed train state (parameters + Adam moments) is
              // loaded into it — the respawn continues exactly where the
              // checkpoint left off instead of re-warming moments from zero.
              optimizers[i] = std::make_unique<nn::Adam>(*replicas[i], config.learning_rate);
              if (!checkpoint_buffer.empty()) {
                std::istringstream in(checkpoint_buffer);
                nn::load_train_state(in, *replicas[i], *optimizers[i]);
              } else {
                nn::copy_parameters(*replicas[src], *replicas[i]);
              }
              if (!final_epoch) {
                context.rejoin(i);
                resume_epoch[i] = epoch + 1;
                ++result.fault.recoveries;
                ++result.per_worker_fault[i].recoveries;
                SPLPG_INFO << "worker " << i << " respawned from checkpoint after epoch "
                           << epoch;
              }
            }
            if (final_epoch) training_done = true;
          }
          recovery_cv.notify_all();
        });
        if (stop_requested.load()) break;  // early stop: all workers agree
        ++epoch;
      }
    } catch (...) {
      // A real failure (not an injected fault): record it, leave the
      // collectives so survivors cannot deadlock, and request a stop. The
      // master rethrows after all threads have joined. Workers parked for
      // crash recovery are released too — the recovery serial section may
      // never run again (e.g. a simulated machine death mid-checkpoint).
      errors[w] = std::current_exception();
      SPLPG_ERROR << "worker " << w << " failed; dropping from collectives";
      stop_requested.store(true);
      context.leave(w);
      {
        const std::lock_guard<std::mutex> lock(recovery_mutex);
        training_done = true;
      }
      recovery_cv.notify_all();
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
  for (auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  // Normalize by the epochs actually run — early stopping (patience) can end
  // training with history.size() < config.epochs, and dividing by the
  // configured count would understate the per-epoch cost.
  result.comm_gigabytes_per_epoch =
      result.history.empty()
          ? 0.0
          : result.comm.total_gigabytes() / static_cast<double>(result.history.size());
  result.sync_gigabytes_per_epoch =
      result.history.empty()
          ? 0.0
          : result.comm.sync_gigabytes() / static_cast<double>(result.history.size());
  if (storage_injector) {
    const auto storage_stats = storage_injector->stats();
    result.fault.storage_write_faults += storage_stats.write_faults();
    result.fault.storage_read_faults += storage_stats.read_faults();
  }
  result.train_seconds = total_watch.seconds();
  result.model = replicas[final_eval_worker];
  return result;
}

}  // namespace splpg::core
