// K-hop computational-graph construction (the "blocks" of Figure 1(b)).
//
// Given seed nodes (the endpoints of a mini-batch's positive and negative
// samples), the sampler expands K layers of neighborhoods, optionally capped
// by per-layer fanouts (GraphSAGE uses 25/10/5 in the paper; fanout 0 means
// full neighborhood, as GCN requires). The result is a stack of bipartite
// Blocks in DGL's message-flow-graph style: blocks[0] consumes raw input
// features, blocks[K-1] produces seed embeddings.
//
// Adjacency is read through an AdjacencyProvider so the distributed runtime
// can (a) serve partition-local reads for free, (b) meter remote reads, and
// (c) substitute *sparsified* adjacency for remote partitions — the core of
// SpLPG.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace splpg::util {
class ThreadPool;
}  // namespace splpg::util

namespace splpg::sampling {

/// Abstract adjacency source (global id space).
class AdjacencyProvider {
 public:
  virtual ~AdjacencyProvider() = default;

  /// Appends the neighbors of `v` (and their edge weights; 1 when
  /// unweighted) to the output vectors.
  virtual void append_neighbors(graph::NodeId v, std::vector<graph::NodeId>& neighbors,
                                std::vector<float>& weights) = 0;

  /// True iff append_neighbors may be called concurrently from multiple
  /// threads. Defaults to false: dist::WorkerView is stateful (comm metering
  /// dedup, fault injection) and its reads must happen serially in
  /// deterministic order, so the pooled sampler only parallelizes the fanout
  /// picks for it. Read-only providers override to true and get the
  /// adjacency fetch parallelized too.
  [[nodiscard]] virtual bool concurrent_safe() const noexcept { return false; }
};

/// Plain provider over a CsrGraph (centralized training, tests).
class GraphProvider final : public AdjacencyProvider {
 public:
  explicit GraphProvider(const graph::CsrGraph& graph) : graph_(&graph) {}

  void append_neighbors(graph::NodeId v, std::vector<graph::NodeId>& neighbors,
                        std::vector<float>& weights) override;

  [[nodiscard]] bool concurrent_safe() const noexcept override { return true; }

 private:
  const graph::CsrGraph* graph_;
};

/// One bipartite message-passing layer.
///
/// src_nodes holds global ids; its first dst_count entries ARE the
/// destination nodes (so h_dst can be read from the src embedding rows
/// 0..dst_count). Edges are index pairs into src_nodes / the dst prefix.
struct Block {
  std::vector<graph::NodeId> src_nodes;
  std::size_t dst_count = 0;
  std::vector<std::uint32_t> edge_src;   // index into src_nodes
  std::vector<std::uint32_t> edge_dst;   // index into [0, dst_count)
  std::vector<float> edge_weight;        // parallel to edges

  [[nodiscard]] std::size_t num_edges() const noexcept { return edge_src.size(); }
  [[nodiscard]] std::span<const graph::NodeId> dst_nodes() const noexcept {
    return {src_nodes.data(), dst_count};
  }
};

struct ComputationGraph {
  std::vector<Block> blocks;  // blocks[0] = input-most layer

  [[nodiscard]] std::span<const graph::NodeId> input_nodes() const noexcept {
    return blocks.front().src_nodes;
  }
  [[nodiscard]] std::span<const graph::NodeId> seed_nodes() const noexcept {
    return blocks.back().dst_nodes();
  }
  /// Total edges across all blocks (proxy for compute size).
  [[nodiscard]] std::size_t total_edges() const noexcept;
};

class NeighborSampler {
 public:
  /// `fanouts[k]` caps layer k's sampled neighbors per destination
  /// (fanouts[0] = input-most layer, matching the paper's 25/10/5 ordering
  /// as first/second/third hop). 0 = take all neighbors.
  explicit NeighborSampler(std::vector<std::uint32_t> fanouts);

  [[nodiscard]] std::size_t num_layers() const noexcept { return fanouts_.size(); }

  /// Builds the computational graph for `seeds` (global ids; duplicates
  /// allowed and collapsed, so seed_nodes() lists the distinct seeds in
  /// first-seen order). Deterministic given rng state, and — the
  /// DESIGN.md §6 contract — bit-identical for every (pool, chunk_size-fixed)
  /// configuration: `rng` advances by exactly one draw per call to derive a
  /// base seed, and each chunk of `chunk_size` destinations samples from its
  /// own pre-split stream, so neither the pool width nor task interleaving
  /// can reach the output bytes. Chunk picks run on `pool` when given (and
  /// the adjacency fetch too, if the provider is concurrent_safe());
  /// per-chunk outputs are merged serially in ascending chunk order.
  [[nodiscard]] ComputationGraph sample(AdjacencyProvider& adjacency,
                                        std::span<const graph::NodeId> seeds,
                                        util::Rng& rng,
                                        util::ThreadPool* pool = nullptr,
                                        std::size_t chunk_size = 64) const;

 private:
  std::vector<std::uint32_t> fanouts_;
};

}  // namespace splpg::sampling
