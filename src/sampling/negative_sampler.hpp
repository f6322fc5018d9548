// Training-time negative sampling (§II-B of the paper).
//
// The paper distinguishes two strategies:
//  * global uniform — both endpoints uniform over the graph (used for eval,
//    see edge_split.hpp);
//  * per-source uniform — for each positive source node, draw negative
//    *destination* nodes uniformly from a candidate set, rejecting actual
//    neighbors. Used during training.
//
// The candidate set is the crux of the distributed story: vanilla baselines
// can only draw destinations from their own partition (local negatives),
// while SpLPG draws from the entire node set (global negatives) because the
// sparsified remote partitions retain *all* nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"
#include "sampling/edge_split.hpp"
#include "util/rng.hpp"

namespace splpg::sampling {

/// Predicate answering "is (u, v) an edge?" against whatever view of the
/// graph the worker has (full train graph, local subgraph, ...).
using EdgeOracle = std::function<bool(graph::NodeId, graph::NodeId)>;

class PerSourceNegativeSampler {
 public:
  /// `candidates` is the destination sample space (global node ids). It is
  /// copied; pass the full node universe or a partition's node list.
  ///
  /// `candidate_weights`, if non-empty (parallel to `candidates`), biases
  /// destination draws proportionally — e.g. degree^0.75 "popularity"
  /// sampling from the negative-sampling literature the paper cites [30],
  /// [31]. Empty = uniform (the paper's per-source uniform strategy).
  PerSourceNegativeSampler(std::vector<graph::NodeId> candidates, EdgeOracle is_edge,
                           std::vector<double> candidate_weights = {});

  /// One negative destination for `source`: uniform over candidates,
  /// rejecting `source` itself and its neighbors (per `is_edge`). After
  /// `max_tries` rejections (near-complete neighborhoods around a hub) falls
  /// back to a deterministic scan of the candidate list from a random offset
  /// and returns the first valid destination; only when *no* candidate is
  /// valid (the source is connected to every other candidate) does it return
  /// the last rejected draw.
  [[nodiscard]] graph::NodeId sample_destination(graph::NodeId source, util::Rng& rng,
                                                 std::uint32_t max_tries = 64) const;

  /// One negative pair per positive edge: (src of positive, sampled dst).
  [[nodiscard]] std::vector<NodePair> sample_for_batch(std::span<const graph::Edge> positives,
                                                       util::Rng& rng) const;

 private:
  std::vector<graph::NodeId> candidates_;
  EdgeOracle is_edge_;
  util::AliasTable weighted_;  // empty = uniform
};

/// How training-time negative destinations are distributed over candidates.
enum class NegativeDistribution { kUniform, kDegreeWeighted };

/// Candidate weights for the chosen distribution; empty for kUniform.
/// Degree-weighted uses (deg + 1)^0.75 over the given graph's degrees.
[[nodiscard]] std::vector<double> negative_candidate_weights(
    NegativeDistribution distribution, const graph::CsrGraph& graph,
    std::span<const graph::NodeId> candidates);

/// Mini-batch iterator over the training positives: reshuffles every epoch,
/// yields contiguous batches of at most `batch_size` edges.
class BatchIterator {
 public:
  BatchIterator(std::span<const graph::Edge> positives, std::uint32_t batch_size);

  /// Starts a new epoch. The permutation is derived by shuffling the
  /// *original* edge order with `rng`, never the previous epoch's order —
  /// an epoch's batch sequence is a pure function of the rng state handed
  /// in, which is what makes checkpoint resume bit-exact (the trainer hands
  /// in a stream derived from (seed, worker, epoch)).
  void reset(util::Rng& rng);

  /// Next batch, empty when the epoch is exhausted.
  [[nodiscard]] std::vector<graph::Edge> next();

 private:
  std::vector<graph::Edge> original_;   // construction order (reset's base)
  std::vector<graph::Edge> positives_;  // current epoch's permutation
  std::uint32_t batch_size_;
  std::size_t cursor_ = 0;
};

}  // namespace splpg::sampling
