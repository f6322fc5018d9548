// Communication accounting for the distributed-training simulation.
//
// The paper's efficiency metric (Figures 4, 8, 9, 13) is the cumulative
// amount of *graph data* — structure (adjacency lists) and node features —
// transferred from the master/shared memory to workers during training.
// Every remote read in WorkerView flows through a CommMeter.
//
// Deduplication is per mini-batch: "the features of the same node need to be
// transferred only once per batch" (§V-C, impact of batch size), and the
// same holds for adjacency lists.
#pragma once

#include <cstdint>
#include <unordered_set>

#include "dist/fault.hpp"
#include "graph/csr_graph.hpp"

namespace splpg::dist {

struct CommStats {
  std::uint64_t structure_bytes = 0;  // adjacency data fetched
  std::uint64_t feature_bytes = 0;    // feature rows fetched
  std::uint64_t structure_fetches = 0;  // deduplicated node-adjacency fetches
  std::uint64_t feature_fetches = 0;    // deduplicated feature-row fetches
  std::uint64_t batches = 0;
  /// Synchronization payload this worker SENT: the exact serialized bytes of
  /// its per-parameter gradient/model payloads under the active CommHook
  /// (dense floats for kNone, indices+values for kTopK, bytes+scale for
  /// kInt8). Broadcast receives are not counted. Kept separate from the
  /// graph-data metric: total_bytes() stays structure + features (the
  /// paper's comm-cost definition).
  std::uint64_t sync_bytes = 0;
  std::uint64_t sync_messages = 0;  // per-parameter payloads sent

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return structure_bytes + feature_bytes;
  }
  [[nodiscard]] double total_gigabytes() const noexcept {
    return static_cast<double>(total_bytes()) / (1024.0 * 1024.0 * 1024.0);
  }
  [[nodiscard]] double sync_gigabytes() const noexcept {
    return static_cast<double>(sync_bytes) / (1024.0 * 1024.0 * 1024.0);
  }

  CommStats& operator+=(const CommStats& other) noexcept {
    structure_bytes += other.structure_bytes;
    feature_bytes += other.feature_bytes;
    structure_fetches += other.structure_fetches;
    feature_fetches += other.feature_fetches;
    batches += other.batches;
    sync_bytes += other.sync_bytes;
    sync_messages += other.sync_messages;
    return *this;
  }
};

class CommMeter {
 public:
  /// Starts a new mini-batch: clears the per-batch dedup sets. Pass
  /// `count = false` when re-running a batch after a degradation (the batch
  /// was already counted; only the dedup state must reset).
  void begin_batch(bool count = true) {
    batch_structure_.clear();
    batch_features_.clear();
    if (count) ++stats_.batches;
  }

  /// True when `v`'s adjacency was already fetched this batch (a repeat read
  /// is served from the batch cache: no RPC, so no fault can be injected).
  [[nodiscard]] bool structure_cached(graph::NodeId v) const {
    return batch_structure_.contains(v);
  }
  [[nodiscard]] bool features_cached(graph::NodeId v) const {
    return batch_features_.contains(v);
  }

  /// Charges a structure fetch for node `v` unless already fetched in this
  /// batch. Returns true when bytes were charged.
  bool charge_structure(graph::NodeId v, std::uint64_t bytes) {
    if (!batch_structure_.insert(v).second) return false;
    stats_.structure_bytes += bytes;
    ++stats_.structure_fetches;
    return true;
  }

  /// Charges a feature-row fetch for node `v` unless already fetched in this
  /// batch. Returns true when bytes were charged.
  bool charge_features(graph::NodeId v, std::uint64_t bytes) {
    if (!batch_features_.insert(v).second) return false;
    stats_.feature_bytes += bytes;
    ++stats_.feature_fetches;
    return true;
  }

  /// Charges one synchronization payload of `bytes` (compressed size under
  /// the active CommHook). Called from the collectives' barrier serial
  /// section, possibly on another worker's thread; this meter's own worker
  /// is blocked at that barrier, which orders the charge with its fetches.
  void charge_sync(std::uint64_t bytes) {
    stats_.sync_bytes += bytes;
    ++stats_.sync_messages;
  }

  [[nodiscard]] const CommStats& stats() const noexcept { return stats_; }

  /// Fault outcomes metered alongside the transfer volume (retries, wasted
  /// bytes, degraded batches, simulated latency/backoff).
  [[nodiscard]] FaultStats& faults() noexcept { return fault_stats_; }
  [[nodiscard]] const FaultStats& faults() const noexcept { return fault_stats_; }

  /// Snapshots and clears the counters (per-epoch reporting).
  CommStats drain() {
    CommStats out = stats_;
    stats_ = CommStats{};
    return out;
  }

  FaultStats drain_faults() {
    FaultStats out = fault_stats_;
    fault_stats_ = FaultStats{};
    return out;
  }

 private:
  CommStats stats_;
  FaultStats fault_stats_;
  std::unordered_set<graph::NodeId> batch_structure_;
  std::unordered_set<graph::NodeId> batch_features_;
};

}  // namespace splpg::dist
