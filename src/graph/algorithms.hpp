// Classic graph algorithms: connectivity, k-hop neighborhoods, degree
// statistics and clustering.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace splpg::graph {

/// Component id per node (0-based, dense), plus component count: the
/// reference the tests check generators and Foster's theorem against.
struct Components {
  std::vector<NodeId> label;  // per node
  NodeId count = 0;

  [[nodiscard]] std::vector<NodeId> component_sizes() const;
  [[nodiscard]] NodeId largest() const;  // id of the largest component
};
[[nodiscard]] Components connected_components(const CsrGraph& graph);

/// All nodes within `k` hops of `seeds` (including the seeds), as the union
/// of full-neighborhood expansions: the reference the tests cross-check the
/// fanout sampler against.
[[nodiscard]] std::vector<NodeId> k_hop_neighborhood(const CsrGraph& graph,
                                                     std::span<const NodeId> seeds,
                                                     std::uint32_t k);

/// Degree distribution summary used by partition data-discrepancy metrics.
struct DegreeStats {
  double mean = 0.0;
  double variance = 0.0;
  NodeId min = 0;
  NodeId max = 0;
  double gini = 0.0;  // inequality of the degree distribution
};
[[nodiscard]] DegreeStats degree_stats(const CsrGraph& graph);

/// Global clustering coefficient (3 * triangles / wedges). O(sum d^2) via
/// sorted-neighbor-list intersection; intended for small/medium graphs and
/// dataset statistics output.
[[nodiscard]] double global_clustering_coefficient(const CsrGraph& graph);

/// Counts triangles via ordered neighbor intersection.
[[nodiscard]] std::uint64_t triangle_count(const CsrGraph& graph);

}  // namespace splpg::graph
