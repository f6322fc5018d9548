// The training methods compared in the paper's evaluation.
//
// Each method is a point in a small configuration space: which partitioner
// runs on the master, what a worker stores locally, what the shared memory
// serves remotely, and where negative destinations are drawn from (see
// dist/worker_view.hpp for the policy semantics).
#pragma once

#include <memory>
#include <string>

#include "dist/worker_view.hpp"
#include "partition/partitioner.hpp"

namespace splpg::core {

enum class Method {
  kCentralized,     // single worker, full graph (the accuracy reference)
  kPsgdPa,          // METIS + induced local subgraph, local negatives [32]
  kPsgdPaPlus,      // PSGD-PA + complete data sharing
  kRandomTma,       // random node partitioning [26]
  kRandomTmaPlus,   // RandomTMA + complete data sharing
  kSuperTma,        // METIS mini-clusters randomly grouped [26]
  kSuperTmaPlus,    // SuperTMA + complete data sharing
  kLlcg,            // PSGD-PA + periodic server-side global correction [32]
  kSplpg,           // ours: full neighbors + sparsified remote partitions
  kSplpgPlus,       // SpLPG with complete data sharing (no sparsification)
  kSplpgMinus,      // SpLPG- : full neighbors, NO data sharing (ablation)
  kSplpgMinusMinus, // SpLPG--: induced, NO data sharing (ablation)
};

[[nodiscard]] std::string to_string(Method method);

/// Worker locality/negative policy for the method.
[[nodiscard]] dist::WorkerPolicy worker_policy(Method method);

/// The partitioner the method's master uses. `super_clusters_per_part`
/// applies to SuperTMA only.
[[nodiscard]] std::unique_ptr<partition::Partitioner> method_partitioner(
    Method method, std::uint32_t super_clusters_per_part);

/// True when the method installs sparsified partition copies (SpLPG only).
[[nodiscard]] bool uses_sparsification(Method method);

/// True for LLCG's server-side correction step.
[[nodiscard]] bool uses_global_correction(Method method);

}  // namespace splpg::core
