// Graph partitioning interfaces and the three strategies the paper studies:
//
//  * MetisLikePartitioner — multilevel k-way partitioning in the spirit of
//    METIS [Karypis & Kumar]: heavy-edge-matching coarsening, greedy region-
//    growing initial partitioning on the coarsest graph, and boundary
//    FM/KL-style refinement during uncoarsening. Minimizes edge cut under a
//    balance constraint, which is exactly the property that causes the data-
//    discrepancy and information-loss effects studied in the paper.
//  * RandomPartitioner — RandomTMA [Zhu et al.]: each node independently
//    uniform over partitions.
//  * SuperPartitioner — SuperTMA: METIS-like partitioning into many mini-
//    clusters, each mini-cluster randomly assigned to a partition.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace splpg::partition {

struct PartitionResult {
  std::uint32_t num_parts = 0;
  std::vector<std::uint32_t> assignment;  // node -> part id

  [[nodiscard]] std::vector<std::vector<graph::NodeId>> part_nodes() const;
  [[nodiscard]] std::vector<graph::NodeId> part_sizes() const;
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;

  /// Splits `graph` into `num_parts` parts. Deterministic given `rng` state.
  [[nodiscard]] virtual PartitionResult partition(const graph::CsrGraph& graph,
                                                  std::uint32_t num_parts,
                                                  util::Rng& rng) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Coarsens to max(30 * p, 64) nodes, keeps every part within 5% of the
/// average weight, and runs 4 boundary-refinement passes per uncoarsening
/// level (8 on the coarsest).
class MetisLikePartitioner final : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(const graph::CsrGraph& graph, std::uint32_t num_parts,
                                          util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "metis_like"; }
};

class RandomPartitioner final : public Partitioner {
 public:
  [[nodiscard]] PartitionResult partition(const graph::CsrGraph& graph, std::uint32_t num_parts,
                                          util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "random_tma"; }
};

class SuperPartitioner final : public Partitioner {
 public:
  /// `clusters_per_part` mini-clusters are created per final partition.
  explicit SuperPartitioner(std::uint32_t clusters_per_part = 16)
      : clusters_per_part_(clusters_per_part) {}

  [[nodiscard]] PartitionResult partition(const graph::CsrGraph& graph, std::uint32_t num_parts,
                                          util::Rng& rng) const override;
  [[nodiscard]] std::string name() const override { return "super_tma"; }

 private:
  std::uint32_t clusters_per_part_;
};

/// Factory by name: "metis_like" | "random_tma" | "super_tma".
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(const std::string& name);

// ---- quality metrics (used by tests and the partitioner ablation bench) ----

/// Number of edges whose endpoints land in different parts.
[[nodiscard]] graph::EdgeId edge_cut(const graph::CsrGraph& graph, const PartitionResult& parts);

/// max part size / ideal part size (1.0 = perfectly balanced).
[[nodiscard]] double balance(const graph::CsrGraph& graph, const PartitionResult& parts);

/// Data-discrepancy proxy: root-mean-square relative deviation of per-part
/// mean degree (computed on part-induced subgraphs) from the global mean
/// degree. Low for random partitioning, high for locality-preserving
/// partitioning — the effect [26] attributes the accuracy drop to.
[[nodiscard]] double degree_discrepancy(const graph::CsrGraph& graph,
                                        const PartitionResult& parts);

}  // namespace splpg::partition
