#include "partition/partitioner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace splpg::partition {

using graph::CsrGraph;
using graph::EdgeId;
using graph::NodeId;
using util::Rng;

std::vector<std::vector<NodeId>> PartitionResult::part_nodes() const {
  std::vector<std::vector<NodeId>> out(num_parts);
  for (NodeId v = 0; v < assignment.size(); ++v) out[assignment[v]].push_back(v);
  return out;
}

std::vector<NodeId> PartitionResult::part_sizes() const {
  std::vector<NodeId> sizes(num_parts, 0);
  for (const std::uint32_t part : assignment) ++sizes[part];
  return sizes;
}

namespace {

/// Coarsening stops at max(kCoarsenTargetPerPart * p, 64) nodes.
constexpr std::uint32_t kCoarsenTargetPerPart = 30;
/// Maximum part weight as a multiple of the average (1.05 = 5%).
constexpr double kBalanceFactor = 1.05;
/// Boundary-refinement passes per uncoarsening level.
constexpr std::uint32_t kRefinePasses = 4;

/// Weighted working graph used across coarsening levels.
struct WorkGraph {
  // adj[v] = (neighbor, edge weight); deduplicated, no self-loops.
  std::vector<std::vector<std::pair<NodeId, std::int64_t>>> adj;
  std::vector<std::int64_t> node_weight;

  [[nodiscard]] NodeId size() const noexcept { return static_cast<NodeId>(adj.size()); }
  [[nodiscard]] std::int64_t total_weight() const noexcept {
    return std::accumulate(node_weight.begin(), node_weight.end(), std::int64_t{0});
  }
};

WorkGraph from_csr(const CsrGraph& graph) {
  WorkGraph work;
  work.adj.resize(graph.num_nodes());
  work.node_weight.assign(graph.num_nodes(), 1);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto neighbors = graph.neighbors(v);
    work.adj[v].reserve(neighbors.size());
    for (const NodeId w : neighbors) work.adj[v].emplace_back(w, 1);
  }
  return work;
}

/// Heavy-edge matching; returns fine -> coarse map and the coarse node count.
std::pair<std::vector<NodeId>, NodeId> heavy_edge_matching(const WorkGraph& work, Rng& rng) {
  const NodeId n = work.size();
  std::vector<NodeId> match(n, graph::kInvalidNode);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(std::span<NodeId>(order));

  for (const NodeId v : order) {
    if (match[v] != graph::kInvalidNode) continue;
    NodeId best = graph::kInvalidNode;
    std::int64_t best_weight = -1;
    for (const auto& [w, weight] : work.adj[v]) {
      if (match[w] == graph::kInvalidNode && weight > best_weight) {
        best = w;
        best_weight = weight;
      }
    }
    if (best != graph::kInvalidNode) {
      match[v] = best;
      match[best] = v;
    } else {
      match[v] = v;  // stays single
    }
  }

  std::vector<NodeId> coarse_of(n, graph::kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (coarse_of[v] != graph::kInvalidNode) continue;
    coarse_of[v] = next;
    if (match[v] != v) coarse_of[match[v]] = next;
    ++next;
  }
  return {std::move(coarse_of), next};
}

WorkGraph contract(const WorkGraph& work, const std::vector<NodeId>& coarse_of,
                   NodeId coarse_count) {
  WorkGraph coarse;
  coarse.adj.resize(coarse_count);
  coarse.node_weight.assign(coarse_count, 0);
  for (NodeId v = 0; v < work.size(); ++v) {
    coarse.node_weight[coarse_of[v]] += work.node_weight[v];
  }
  // Aggregate parallel edges with a scratch map per coarse node.
  std::unordered_map<NodeId, std::int64_t> scratch;
  std::vector<std::vector<NodeId>> members(coarse_count);
  for (NodeId v = 0; v < work.size(); ++v) members[coarse_of[v]].push_back(v);
  for (NodeId cv = 0; cv < coarse_count; ++cv) {
    scratch.clear();
    for (const NodeId v : members[cv]) {
      for (const auto& [w, weight] : work.adj[v]) {
        const NodeId cw = coarse_of[w];
        if (cw == cv) continue;  // collapsed edge
        scratch[cw] += weight;
      }
    }
    coarse.adj[cv].assign(scratch.begin(), scratch.end());
    std::sort(coarse.adj[cv].begin(), coarse.adj[cv].end());
  }
  return coarse;
}

/// Greedy region growing on the coarsest graph.
std::vector<std::uint32_t> initial_partition(const WorkGraph& work, std::uint32_t p, Rng& rng) {
  const NodeId n = work.size();
  std::vector<std::uint32_t> part(n, p - 1);  // leftover nodes go to the last part
  std::vector<bool> assigned(n, false);
  const std::int64_t target = (work.total_weight() + p - 1) / p;

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(std::span<NodeId>(order));
  std::size_t seed_cursor = 0;

  for (std::uint32_t g = 0; g + 1 < p; ++g) {
    // Find an unassigned seed.
    while (seed_cursor < order.size() && assigned[order[seed_cursor]]) ++seed_cursor;
    if (seed_cursor >= order.size()) break;
    std::deque<NodeId> queue{order[seed_cursor]};
    std::int64_t weight = 0;
    while (weight < target) {
      NodeId v = graph::kInvalidNode;
      while (!queue.empty()) {
        const NodeId candidate = queue.front();
        queue.pop_front();
        if (!assigned[candidate]) {
          v = candidate;
          break;
        }
      }
      if (v == graph::kInvalidNode) {
        // Region exhausted (disconnected graph): restart from a fresh seed.
        while (seed_cursor < order.size() && assigned[order[seed_cursor]]) ++seed_cursor;
        if (seed_cursor >= order.size()) break;
        queue.push_back(order[seed_cursor]);
        continue;
      }
      assigned[v] = true;
      part[v] = g;
      weight += work.node_weight[v];
      for (const auto& [w, edge_weight] : work.adj[v]) {
        (void)edge_weight;
        if (!assigned[w]) queue.push_back(w);
      }
    }
  }
  return part;
}

/// Boundary FM-style refinement: greedy positive-gain moves under balance.
void refine(const WorkGraph& work, std::uint32_t p, std::uint32_t passes,
            std::vector<std::uint32_t>& part, Rng& rng) {
  const NodeId n = work.size();
  std::vector<std::int64_t> part_weight(p, 0);
  for (NodeId v = 0; v < n; ++v) part_weight[part[v]] += work.node_weight[v];
  const std::int64_t max_weight = static_cast<std::int64_t>(
      std::ceil(kBalanceFactor * static_cast<double>(work.total_weight()) / p));

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::vector<std::int64_t> link(p, 0);

  for (std::uint32_t pass = 0; pass < passes; ++pass) {
    rng.shuffle(std::span<NodeId>(order));
    bool moved_any = false;
    for (const NodeId v : order) {
      if (work.adj[v].empty()) continue;
      std::fill(link.begin(), link.end(), 0);
      bool boundary = false;
      for (const auto& [w, weight] : work.adj[v]) {
        link[part[w]] += weight;
        if (part[w] != part[v]) boundary = true;
      }
      if (!boundary) continue;
      const std::uint32_t from = part[v];
      std::uint32_t best = from;
      std::int64_t best_gain = 0;
      for (std::uint32_t g = 0; g < p; ++g) {
        if (g == from) continue;
        if (part_weight[g] + work.node_weight[v] > max_weight) continue;
        const std::int64_t gain = link[g] - link[from];
        const bool better =
            gain > best_gain ||
            (gain == best_gain && gain > 0 && part_weight[g] < part_weight[best]);
        if (better) {
          best = g;
          best_gain = gain;
        }
      }
      // Also allow zero-gain moves out of overweight parts.
      if (best == from && part_weight[from] > max_weight) {
        std::uint32_t lightest = from;
        for (std::uint32_t g = 0; g < p; ++g) {
          if (part_weight[g] < part_weight[lightest]) lightest = g;
        }
        if (lightest != from) best = lightest;
      }
      if (best != from) {
        part_weight[from] -= work.node_weight[v];
        part_weight[best] += work.node_weight[v];
        part[v] = best;
        moved_any = true;
      }
    }
    if (!moved_any) break;
  }
}

}  // namespace

PartitionResult MetisLikePartitioner::partition(const CsrGraph& graph, std::uint32_t num_parts,
                                                Rng& rng) const {
  if (num_parts == 0) throw std::invalid_argument("partition: num_parts must be >= 1");
  PartitionResult result;
  result.num_parts = num_parts;
  if (graph.num_nodes() == 0) return result;
  if (num_parts == 1) {
    result.assignment.assign(graph.num_nodes(), 0);
    return result;
  }

  // ---- coarsening ----
  std::vector<WorkGraph> levels;
  std::vector<std::vector<NodeId>> maps;  // maps[i]: level i -> level i+1
  levels.push_back(from_csr(graph));
  const NodeId target = std::max<NodeId>(64, kCoarsenTargetPerPart * num_parts);
  while (levels.back().size() > target) {
    auto [coarse_of, coarse_count] = heavy_edge_matching(levels.back(), rng);
    if (coarse_count >= levels.back().size() * 95 / 100) break;  // stalled
    WorkGraph coarse = contract(levels.back(), coarse_of, coarse_count);
    maps.push_back(std::move(coarse_of));
    levels.push_back(std::move(coarse));
  }

  // ---- initial partition on the coarsest level ----
  std::vector<std::uint32_t> part = initial_partition(levels.back(), num_parts, rng);
  refine(levels.back(), num_parts, kRefinePasses * 2, part, rng);

  // ---- uncoarsen + refine ----
  for (std::size_t level = levels.size() - 1; level-- > 0;) {
    const auto& coarse_of = maps[level];
    std::vector<std::uint32_t> fine_part(levels[level].size());
    for (NodeId v = 0; v < fine_part.size(); ++v) fine_part[v] = part[coarse_of[v]];
    part = std::move(fine_part);
    refine(levels[level], num_parts, kRefinePasses, part, rng);
  }

  result.assignment = std::move(part);
  return result;
}

PartitionResult RandomPartitioner::partition(const CsrGraph& graph, std::uint32_t num_parts,
                                             Rng& rng) const {
  if (num_parts == 0) throw std::invalid_argument("partition: num_parts must be >= 1");
  PartitionResult result;
  result.num_parts = num_parts;
  result.assignment.resize(graph.num_nodes());
  for (auto& part : result.assignment) {
    part = static_cast<std::uint32_t>(rng.uniform_u64(num_parts));
  }
  return result;
}

PartitionResult SuperPartitioner::partition(const CsrGraph& graph, std::uint32_t num_parts,
                                            Rng& rng) const {
  if (num_parts == 0) throw std::invalid_argument("partition: num_parts must be >= 1");
  const std::uint32_t clusters = std::max<std::uint32_t>(
      num_parts, std::min<std::uint32_t>(clusters_per_part_ * num_parts,
                                         std::max<std::uint32_t>(1, graph.num_nodes() / 2)));
  const MetisLikePartitioner metis;
  const PartitionResult mini = metis.partition(graph, clusters, rng);

  // Random mini-cluster -> partition assignment (each partition gets an equal
  // share of clusters, in shuffled order).
  std::vector<std::uint32_t> cluster_part(clusters);
  for (std::uint32_t cluster = 0; cluster < clusters; ++cluster) {
    cluster_part[cluster] = cluster % num_parts;
  }
  rng.shuffle(std::span<std::uint32_t>(cluster_part));

  PartitionResult result;
  result.num_parts = num_parts;
  result.assignment.resize(graph.num_nodes());
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    result.assignment[v] = cluster_part[mini.assignment[v]];
  }
  return result;
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& name) {
  if (name == "metis_like") return std::make_unique<MetisLikePartitioner>();
  if (name == "random_tma") return std::make_unique<RandomPartitioner>();
  if (name == "super_tma") return std::make_unique<SuperPartitioner>();
  throw std::invalid_argument("unknown partitioner: " + name);
}

EdgeId edge_cut(const CsrGraph& graph, const PartitionResult& parts) {
  EdgeId cut = 0;
  for (const auto& [u, v] : graph.edges()) {
    if (parts.assignment[u] != parts.assignment[v]) ++cut;
  }
  return cut;
}

double balance(const CsrGraph& graph, const PartitionResult& parts) {
  if (graph.num_nodes() == 0 || parts.num_parts == 0) return 1.0;
  const auto sizes = parts.part_sizes();
  const auto max_size = *std::max_element(sizes.begin(), sizes.end());
  const double ideal =
      static_cast<double>(graph.num_nodes()) / static_cast<double>(parts.num_parts);
  return static_cast<double>(max_size) / ideal;
}

double degree_discrepancy(const CsrGraph& graph, const PartitionResult& parts) {
  if (graph.num_nodes() == 0) return 0.0;
  const double global_mean = graph.mean_degree();
  if (global_mean == 0.0) return 0.0;

  // Mean degree of each part-induced subgraph: count intra-part edge ends.
  std::vector<double> intra_degree(parts.num_parts, 0.0);
  std::vector<double> part_size(parts.num_parts, 0.0);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) part_size[parts.assignment[v]] += 1.0;
  for (const auto& [u, v] : graph.edges()) {
    if (parts.assignment[u] == parts.assignment[v]) {
      intra_degree[parts.assignment[u]] += 2.0;
    }
  }
  double sum_sq = 0.0;
  std::uint32_t counted = 0;
  for (std::uint32_t g = 0; g < parts.num_parts; ++g) {
    if (part_size[g] == 0.0) continue;
    const double mean = intra_degree[g] / part_size[g];
    const double rel = (mean - global_mean) / global_mean;
    sum_sq += rel * rel;
    ++counted;
  }
  return counted == 0 ? 0.0 : std::sqrt(sum_sq / counted);
}

}  // namespace splpg::partition
