// Graph sparsifiers.
//
// EffectiveResistanceSparsifier implements Algorithm 1, lines 4-14: sample
// L = ceil(alpha * |E|) edges *with replacement*, each edge (u,v) drawn with
// probability p ∝ 1/du + 1/dv (the Theorem 2 approximation of effective
// resistance), assign weight 1/(L*p), and sum weights when an edge is drawn
// more than once (Theorem 1, Spielman & Srivastava). All nodes are retained;
// ~85% of edges are removed at the paper's default alpha = 0.15.
//
// UniformSparsifier is the ablation baseline: same sampling budget, but
// edges drawn uniformly — quantifying how much the resistance-proportional
// importance actually buys.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace splpg::sparsify {

struct SparsifyStats {
  graph::EdgeId kept_edges = 0;  // distinct edges in the output
  double removal_ratio = 0.0;    // 1 - kept/original
};

/// Knobs shared by every sparsifier implementation.
struct SparsifyConfig {
  /// Number of draws L = ceil(alpha * |E|).
  double alpha = 0.15;
  /// ThreadPool width for `sparsify_partitions`: 1 = serial on the calling
  /// thread (default), 0 = hardware concurrency, N = N pool threads. Output
  /// is bit-identical at every setting (per-partition pre-split RNG).
  std::size_t num_threads = 1;
};

class Sparsifier {
 public:
  /// `alpha` sets the number of draws L = ceil(alpha * |E|); `num_threads`
  /// sizes the pool `sparsify_partitions` fans out on (see SparsifyConfig).
  explicit Sparsifier(double alpha, std::size_t num_threads = 1);
  virtual ~Sparsifier() = default;

  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] virtual std::string name() const = 0;

  /// Returns the sparsified, weighted graph over the same node set.
  /// Deterministic given `rng` state. `stats`, if non-null, receives the
  /// kept-edge count and removal ratio.
  [[nodiscard]] graph::CsrGraph sparsify(const graph::CsrGraph& graph, util::Rng& rng,
                                         SparsifyStats* stats = nullptr) const;

  /// Sparsifies every partition subgraph: partition i's subgraph contains
  /// all edges with at least one endpoint assigned to part i (cross-
  /// partition edges are kept in both parts, matching Algorithm 1 line 3).
  /// Returns one weighted graph per part, all in the *global* id space.
  ///
  /// Partitions fan out on a ThreadPool when `num_threads != 1`. Each
  /// partition draws from its own pre-split stream `rng.split("part", p)`
  /// (the parent stream is NOT advanced), so the output is bit-identical
  /// for every thread count, including the serial path.
  [[nodiscard]] std::vector<graph::CsrGraph> sparsify_partitions(
      const graph::CsrGraph& graph, const std::vector<std::uint32_t>& assignment,
      std::uint32_t num_parts, util::Rng& rng,
      std::vector<SparsifyStats>* stats = nullptr) const;

 protected:
  /// Per-edge sampling weight for the edge list being sparsified;
  /// `degree_of(v)` is v's degree within that edge set.
  [[nodiscard]] virtual double edge_importance(
      const graph::Edge& edge, const std::function<double(graph::NodeId)>& degree_of) const = 0;

 private:
  std::pair<std::vector<graph::Edge>, std::vector<float>> sparsify_edges(
      std::span<const graph::Edge> edges,
      const std::function<double(graph::NodeId)>& degree_of, util::Rng& rng,
      SparsifyStats* stats) const;

  double alpha_;
  std::size_t num_threads_;
};

/// Effective-resistance importance (Theorem 2): 1/du + 1/dv.
class EffectiveResistanceSparsifier final : public Sparsifier {
 public:
  explicit EffectiveResistanceSparsifier(double alpha = 0.15, std::size_t num_threads = 1)
      : Sparsifier(alpha, num_threads) {}
  [[nodiscard]] std::string name() const override { return "effective_resistance"; }

 protected:
  [[nodiscard]] double edge_importance(
      const graph::Edge& edge,
      const std::function<double(graph::NodeId)>& degree_of) const override;
};

/// Uniform importance — the ablation baseline.
class UniformSparsifier final : public Sparsifier {
 public:
  explicit UniformSparsifier(double alpha = 0.15, std::size_t num_threads = 1)
      : Sparsifier(alpha, num_threads) {}
  [[nodiscard]] std::string name() const override { return "uniform"; }

 protected:
  [[nodiscard]] double edge_importance(
      const graph::Edge& edge,
      const std::function<double(graph::NodeId)>& degree_of) const override;
};

enum class SparsifierKind { kEffectiveResistance, kUniform };

[[nodiscard]] std::unique_ptr<Sparsifier> make_sparsifier(SparsifierKind kind,
                                                          const SparsifyConfig& config);

}  // namespace splpg::sparsify
