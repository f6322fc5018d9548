// A worker's view of the graph data, with locality policy and metering.
//
// The policy axes encode every method variant in the paper:
//
//   full_neighbors:  true  -> the worker locally stores the FULL adjacency
//                             list of each of its core nodes (cross-partition
//                             edges kept, Alg. 1 line 3) plus the features of
//                             those 1-hop halo neighbors;
//                    false -> only the part-induced subgraph and core
//                             features are local (PSGD-PA / RandomTMA /
//                             SuperTMA semantics: cross-partition edges are
//                             ignored locally).
//   remote:          what the shared memory serves for NON-core nodes —
//                    nothing (vanilla, no data sharing), the full graph
//                    (the "+" complete data-sharing strategy), or the
//                    sparsified partition copies (SpLPG).
//   negatives:       per-source negative destinations drawn from the entire
//                    node set (global) or only this worker's partition
//                    (local).
//
// Method mapping:
//   PSGD-PA / RandomTMA / SuperTMA : {false, kNone,       kLocal}
//   PSGD-PA+ / RandomTMA+ / SuperTMA+ : {false, kFull,    kGlobal}
//   SpLPG--                        : {false, kNone,       kLocal}
//   SpLPG-                         : {true,  kNone,       kLocal}
//   SpLPG                          : {true,  kSparsified, kGlobal}
//   SpLPG+                         : {true,  kFull,       kGlobal}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/comm_meter.hpp"
#include "dist/fault.hpp"
#include "dist/master_store.hpp"
#include "dist/retry.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "tensor/matrix.hpp"

namespace splpg::dist {

enum class RemoteAdjacency { kNone, kFull, kSparsified };
enum class NegativeScope { kLocal, kGlobal };

struct WorkerPolicy {
  bool full_neighbors = false;
  RemoteAdjacency remote = RemoteAdjacency::kNone;
  NegativeScope negatives = NegativeScope::kLocal;
};

[[nodiscard]] std::string to_string(const WorkerPolicy& policy);

class WorkerView final : public sampling::AdjacencyProvider {
 public:
  WorkerView(const MasterStore& store, std::uint32_t part, WorkerPolicy policy);

  [[nodiscard]] std::uint32_t part() const noexcept { return part_; }
  [[nodiscard]] const WorkerPolicy& policy() const noexcept { return policy_; }
  [[nodiscard]] CommMeter& meter() noexcept { return meter_; }

  /// Attaches a fault injector (shared by all workers, keyed by this view's
  /// part id) and the retry policy its remote fetches flow through. Pass
  /// nullptr to restore the perfect-cluster default.
  void attach_faults(FaultInjector* injector, RetryPolicy retry) {
    injector_ = injector;
    retry_ = retry;
  }

  /// Attaches the worker's compute pool (owned by the trainer). The sampler
  /// uses it for chunk-parallel fanout picks; concurrent_safe() stays false
  /// because append_neighbors itself is stateful (metering dedup, fault
  /// randomness) and must run serially. nullptr restores serial sampling.
  void attach_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }
  [[nodiscard]] util::ThreadPool* pool() const noexcept { return pool_; }

  /// Degraded mode (set by the trainer after a permanent fetch failure, for
  /// the remainder of the batch): remote adjacency behaves as
  /// RemoteAdjacency::kNone and non-local feature rows are served as zeros,
  /// so the batch completes on local data instead of aborting.
  void set_degraded(bool degraded) noexcept { degraded_ = degraded; }
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }

  /// Must be called at every mini-batch boundary (resets fetch dedup).
  void begin_batch() { meter_.begin_batch(!degraded_); }

  /// AdjacencyProvider: serves local reads for free and remote reads
  /// according to the policy, charging the meter.
  void append_neighbors(graph::NodeId v, std::vector<graph::NodeId>& neighbors,
                        std::vector<float>& weights) override;

  /// Gathers feature rows for `nodes` (a computational graph's input
  /// frontier), charging the meter for non-local rows. Throws logic_error
  /// (naming the partition, node, and policy) if a non-local row is
  /// requested under RemoteAdjacency::kNone — by construction that cannot
  /// happen for a correctly configured method. In degraded mode, non-local
  /// rows are zero-filled instead of fetched.
  [[nodiscard]] tensor::Matrix gather_features(std::span<const graph::NodeId> nodes);

  /// Destination candidates for per-source negative sampling.
  [[nodiscard]] std::vector<graph::NodeId> negative_candidates() const;

  /// The positive (training) edges this worker trains on.
  ///
  /// Vanilla methods (no data sharing, induced subgraph) only see INTRA-
  /// partition edges — cross-partition edges are lost, which is precisely
  /// the positive-sample information loss of §III. Full-neighbor methods
  /// keep cross edges locally, and data-sharing methods can fetch whatever
  /// they miss; both train on every edge whose first endpoint is core here
  /// (a dedup rule: each cross edge is owned by exactly one worker).
  [[nodiscard]] std::vector<graph::Edge> owned_positive_edges(
      std::span<const graph::Edge> train_edges) const;

  [[nodiscard]] bool is_core(graph::NodeId v) const noexcept {
    return store_->part_of(v) == part_;
  }
  [[nodiscard]] bool is_local_feature(graph::NodeId v) const noexcept {
    return is_core(v) || (policy_.full_neighbors && store_->in_halo(part_, v));
  }

 private:
  /// Simulates the remote RPC for `bytes` of payload under the fault plan,
  /// retrying per the policy. Returns false on permanent failure. No-op
  /// (returns true) without an injector.
  bool remote_fetch_succeeds(std::uint64_t bytes);

  const MasterStore* store_;
  std::uint32_t part_;
  WorkerPolicy policy_;
  CommMeter meter_;
  FaultInjector* injector_ = nullptr;
  util::ThreadPool* pool_ = nullptr;
  RetryPolicy retry_;
  bool degraded_ = false;
};

}  // namespace splpg::dist
