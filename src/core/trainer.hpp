// Distributed (and centralized) link-prediction training — Algorithm 1 and
// all baselines/variants of the paper's evaluation.
//
// The master (calling thread) partitions the training graph, optionally
// sparsifies the partitions (SpLPG), builds one WorkerView + model replica +
// optimizer per worker, and launches one OS thread per worker. Workers run
// mini-batch training with per-batch negative sampling and synchronize via
// gradient averaging (every batch) or model averaging (every `local_steps`
// batches, or once per epoch). Everything is deterministic in config.seed.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/method.hpp"
#include "dist/comm_meter.hpp"
#include "dist/fault.hpp"
#include "dist/retry.hpp"
#include "dist/sync.hpp"
#include "graph/features.hpp"
#include "io/storage_fault.hpp"
#include "nn/model.hpp"
#include "sampling/edge_split.hpp"
#include "sampling/negative_sampler.hpp"
#include "sparsify/sparsifier.hpp"

namespace splpg::core {

struct TrainConfig {
  Method method = Method::kSplpg;
  nn::ModelConfig model;                     // in_dim: 0 = features.dim(), else must equal it
  std::uint32_t num_partitions = 4;          // ignored for kCentralized
  std::uint32_t epochs = 10;                 // >= 1, else std::invalid_argument
  std::uint32_t batch_size = 256;            // >= 1, else std::invalid_argument
  float learning_rate = 1e-3F;
  dist::SyncMode sync = dist::SyncMode::kModelAveraging;  // baselines' setting

  // ---- communication-efficient regimes ----
  /// Compression hook applied inside both collectives (gradient all-reduce
  /// and model averaging), in the barrier's serial section so determinism is
  /// unaffected. kNone (default) keeps the collective arithmetic
  /// byte-for-byte identical to the hook-free path and merely meters the
  /// dense payload; kTopK sends the k largest-magnitude entries per tensor
  /// with per-worker error feedback; kInt8 sends per-tensor symmetric
  /// 8-bit quantized payloads. Exact compressed payload bytes land in
  /// CommStats::sync_bytes per worker.
  dist::CommHookKind comm_hook = dist::CommHookKind::kNone;
  /// Fraction of entries kTopK keeps per tensor, in (0, 1]:
  /// k = clamp(ceil(fraction * n), 1, n).
  float topk_fraction = 0.01F;
  /// Model-averaging period H in rounds under SyncMode::kModelAveraging:
  /// every worker takes H local optimizer steps, then all replicas are
  /// averaged (local-SGD). The epoch always ends with an average of the
  /// rounds since the last one, so evaluation and checkpoints see the
  /// synchronized model. 0 = average once per epoch (the paper's baselines);
  /// 1 = after every batch. Ignored under gradient averaging.
  std::uint32_t local_steps = 0;
  double alpha = 0.15;                       // sparsification level (SpLPG)
  sparsify::SparsifierKind sparsifier = sparsify::SparsifierKind::kEffectiveResistance;
  sampling::NegativeDistribution negative_distribution =
      sampling::NegativeDistribution::kUniform;  // per-source uniform (paper)
  std::uint32_t super_clusters_per_part = 16;
  std::uint32_t max_batches_per_epoch = 0;   // 0 = run the full epoch
  std::uint32_t eval_every = 0;              // 0 = evaluate only after training
  std::size_t eval_k = 0;                    // 0 = auto (see Evaluator)
  std::uint32_t llcg_correction_batches = 8;
  std::vector<std::uint32_t> fanouts;        // empty = model default
  /// Early stopping: stop when validation Hits@K has not improved for this
  /// many evaluations (requires eval_every > 0, else train_link_prediction
  /// throws std::invalid_argument). 0 = train all epochs (the
  /// paper's protocol: fixed epochs, report test at best validation).
  std::uint32_t patience = 0;

  // ---- fault tolerance ----
  /// Deterministic fault injection (seeded from `seed`). Default: none (a
  /// perfect cluster). Transient fetch failures are retried per `retry`; a
  /// permanently failed fetch degrades that batch to local data; scheduled
  /// worker crashes are recovered from the latest checkpoint at the next
  /// epoch boundary (survivors keep synchronizing meanwhile).
  dist::FaultPlan faults;
  /// Retry/backoff policy every remote fetch flows through when faults are
  /// injected.
  dist::RetryPolicy retry;
  /// Epochs between checkpoints (kept in memory for crash recovery; also
  /// written to `checkpoint_dir` when set). A checkpoint carries the full
  /// training state — model parameters AND optimizer moments — so a
  /// recovered or resumed worker continues exactly where the checkpoint
  /// left off. 0 disables checkpointing — a crashed worker is then restored
  /// by copying a survivor's replica (with fresh moments).
  std::uint32_t checkpoint_every = 1;
  /// Optional directory for on-disk checkpoints. Each checkpointed epoch
  /// writes `model_epoch_<e>.bin` (parameters only, nn::save_parameters_file
  /// format — the servable artifact) and `state_epoch_<e>.bin` (full train
  /// state, nn::save_train_state_file format — the resumable artifact), every
  /// file through io::AtomicFile (a crash mid-write never leaves a torn file
  /// under a final name), plus a self-checksummed MANIFEST naming the
  /// retained epochs. A failed checkpoint write (full disk, failed rename)
  /// is logged and counted in TrainResult::fault.checkpoint_write_failures;
  /// training continues. Empty = in-memory only.
  std::string checkpoint_dir;
  /// Keep-last-K checkpoint retention for `checkpoint_dir`: after each
  /// checkpoint, epochs beyond the newest K are deleted (and orphaned
  /// AtomicFile temporaries swept). 0 = keep every epoch.
  std::uint32_t keep_checkpoints = 0;
  /// Optional resume source. A path to a `state_epoch_<e>.bin` file resumes
  /// from epoch e + 1 with every replica's parameters and optimizer moments
  /// restored from it. The string "auto" scans `checkpoint_dir` (required)
  /// for the newest checkpoint that validates — corrupt or truncated ones
  /// are skipped epoch-by-epoch (counted in
  /// TrainResult::fault.checkpoints_skipped_invalid) — and starts fresh when
  /// none does. With replica-identical optimizer state (gradient averaging,
  /// or a single worker) the resumed run is bit-identical to one that never
  /// stopped; under model averaging per-worker moments differ and resume
  /// restores the checkpointed worker's moments everywhere. Empty = start
  /// from scratch.
  std::string resume_from;
  /// Deterministic storage fault injection (seeded from `seed`): torn
  /// checkpoint writes, ENOSPC, failed renames, on-disk bit flips. Installed
  /// process-globally for the run (io::StorageFaultScope). Default: none.
  io::StorageFaultPlan storage_faults;

  /// Master-side ThreadPool width for the preprocessing and evaluation hot
  /// paths (partition sparsification, evaluation batch scoring). 1 = serial
  /// (default), 0 = hardware concurrency, N = N pool threads. Results are
  /// bit-identical at every setting; worker-thread count is always
  /// `num_partitions` and unaffected by this knob.
  std::size_t num_threads = 1;

  /// Worker-side ThreadPool width for the per-batch hot paths: chunk-parallel
  /// neighbor-fanout sampling and the row-blocked matmul / edge-aggregation
  /// kernels inside forward/backward. Each worker owns its own pool of this
  /// many threads. 1 = serial (default), 0 = hardware concurrency. Results
  /// are bit-identical at every setting (DESIGN.md §6).
  std::size_t worker_threads = 1;

  std::uint64_t seed = 1;
};

struct EpochRecord {
  std::uint32_t epoch = 0;
  double mean_loss = 0.0;
  double comm_gigabytes = 0.0;  // graph data (structure + features), this epoch
  double sync_gigabytes = 0.0;  // compressed synchronization payload, this epoch
  double val_hits = -1.0;       // -1 when not evaluated this epoch
  double test_hits = -1.0;
  double test_auc = -1.0;
  double seconds = 0.0;
};

struct TrainResult {
  std::vector<EpochRecord> history;

  /// The trained (synchronized) model — the replica the final evaluation
  /// scored (the lowest-indexed surviving worker; worker 0 unless it
  /// crashed). Use with core::Evaluator for serving/inference — re-evaluating
  /// it reproduces `test_hits` exactly.
  std::shared_ptr<nn::LinkPredictionModel> model;

  // Accuracy: test metrics at the best-validation epoch when per-epoch
  // evaluation ran, else from the single final evaluation.
  double best_val_hits = 0.0;
  double test_hits = 0.0;
  double test_auc = 0.0;
  std::size_t eval_k = 0;

  // Communication, summed over all workers and epochs. `comm` carries both
  // the graph-data metric (total_bytes: structure + features — the paper's
  // definition) and the synchronization payload (sync_bytes: exact
  // compressed gradient/model bytes under the configured comm_hook).
  dist::CommStats comm;
  double comm_gigabytes_per_epoch = 0.0;
  /// sync_bytes normalized by the epochs actually run (early stop aware,
  /// like comm_gigabytes_per_epoch).
  double sync_gigabytes_per_epoch = 0.0;
  /// Per-worker totals (same sum as `comm`) — exposes transfer-load
  /// imbalance across workers, which partitioning quality drives.
  std::vector<dist::CommStats> per_worker_comm;

  // Fault outcomes (all zero on a fault-free run): retries, wasted bytes,
  // degraded batches, crashes, checkpoint recoveries, storage faults,
  // simulated fault time. Bit-deterministic in config.seed like everything
  // else.
  dist::FaultStats fault;
  std::vector<dist::FaultStats> per_worker_fault;

  /// Epoch the run resumed from (resume_from path or "auto"); 0 = started
  /// fresh (or resumed from the epoch-0 initial-state checkpoint).
  std::uint32_t resumed_from_epoch = 0;

  // Preprocessing: the master's wall-clock time in sparsify_partitions, and
  // the edge cut of the partition the workers train on.
  double sparsify_seconds = 0.0;
  graph::EdgeId partition_edge_cut = 0;

  double train_seconds = 0.0;
  std::uint64_t total_batches = 0;
};

[[nodiscard]] TrainResult train_link_prediction(const sampling::LinkSplit& split,
                                                const graph::FeatureStore& features,
                                                const TrainConfig& config);

}  // namespace splpg::core
