// The master server / shared memory of the distributed simulation.
//
// Holds the full training graph and features, the partition assignment, the
// per-partition halo sets ("the full-neighbor list of each node is fully
// preserved in a partitioned subgraph", Alg. 1 line 3), and — once installed
// — the sparsified copy of every partition (Alg. 1 line 14).
//
// Everything is immutable after setup, so concurrent worker-thread reads
// need no locking. Whether a read is *free* (partition-local) or *metered*
// (remote) is decided by WorkerView, not here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/features.hpp"
#include "partition/partitioner.hpp"

namespace splpg::dist {

class MasterStore {
 public:
  /// `graph` must be the TRAIN graph (held-out edges removed).
  MasterStore(graph::CsrGraph graph, const graph::FeatureStore* features,
              partition::PartitionResult parts);

  [[nodiscard]] const graph::CsrGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const graph::FeatureStore& features() const noexcept { return *features_; }
  [[nodiscard]] std::uint32_t num_parts() const noexcept { return parts_.num_parts; }

  [[nodiscard]] std::uint32_t part_of(graph::NodeId v) const noexcept {
    return parts_.assignment[v];
  }

  /// Core nodes of a partition (sorted).
  [[nodiscard]] const std::vector<graph::NodeId>& part_nodes(std::uint32_t part) const {
    return part_nodes_[part];
  }

  /// True iff `v` is a 1-hop neighbor of `part`'s core nodes without being a
  /// core node itself. Binary search over the part's sorted halo list —
  /// O(log halo) per query, O(sum of halo sizes) memory rather than the
  /// O(parts * nodes) a per-part bitmap would cost.
  [[nodiscard]] bool in_halo(std::uint32_t part, graph::NodeId v) const {
    const std::vector<graph::NodeId>& halo = halo_[part];
    return std::binary_search(halo.begin(), halo.end(), v);
  }

  /// Installs the sparsified partition graphs (global id space).
  void set_sparsified(std::vector<graph::CsrGraph> graphs);
  [[nodiscard]] bool has_sparsified() const noexcept { return !sparsified_.empty(); }
  [[nodiscard]] const graph::CsrGraph& sparsified(std::uint32_t part) const {
    if (sparsified_.empty()) throw std::logic_error("MasterStore: sparsified graphs not set");
    return sparsified_[part];
  }

 private:
  graph::CsrGraph graph_;
  const graph::FeatureStore* features_;
  partition::PartitionResult parts_;
  std::vector<std::vector<graph::NodeId>> part_nodes_;
  std::vector<std::vector<graph::NodeId>> halo_;  // per part, sorted + deduplicated
  std::vector<graph::CsrGraph> sparsified_;
};

}  // namespace splpg::dist
