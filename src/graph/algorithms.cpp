#include "graph/algorithms.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

namespace splpg::graph {

std::vector<NodeId> Components::component_sizes() const {
  std::vector<NodeId> sizes(count, 0);
  for (const NodeId c : label) ++sizes[c];
  return sizes;
}

NodeId Components::largest() const {
  const auto sizes = component_sizes();
  if (sizes.empty()) return kInvalidNode;
  return static_cast<NodeId>(std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
}

Components connected_components(const CsrGraph& graph) {
  Components out;
  out.label.assign(graph.num_nodes(), kInvalidNode);
  std::deque<NodeId> queue;
  for (NodeId seed = 0; seed < graph.num_nodes(); ++seed) {
    if (out.label[seed] != kInvalidNode) continue;
    const NodeId component = out.count++;
    out.label[seed] = component;
    queue.push_back(seed);
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      for (const NodeId w : graph.neighbors(v)) {
        if (out.label[w] == kInvalidNode) {
          out.label[w] = component;
          queue.push_back(w);
        }
      }
    }
  }
  return out;
}

std::vector<NodeId> k_hop_neighborhood(const CsrGraph& graph, std::span<const NodeId> seeds,
                                       std::uint32_t k) {
  std::vector<bool> seen(graph.num_nodes(), false);
  std::vector<NodeId> frontier;
  std::vector<NodeId> result;
  for (const NodeId s : seeds) {
    if (!seen[s]) {
      seen[s] = true;
      frontier.push_back(s);
      result.push_back(s);
    }
  }
  for (std::uint32_t hop = 0; hop < k && !frontier.empty(); ++hop) {
    std::vector<NodeId> next;
    for (const NodeId v : frontier) {
      for (const NodeId w : graph.neighbors(v)) {
        if (!seen[w]) {
          seen[w] = true;
          next.push_back(w);
          result.push_back(w);
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(result.begin(), result.end());
  return result;
}

DegreeStats degree_stats(const CsrGraph& graph) {
  DegreeStats stats;
  const NodeId n = graph.num_nodes();
  if (n == 0) return stats;
  std::vector<NodeId> degrees(n);
  for (NodeId v = 0; v < n; ++v) degrees[v] = graph.degree(v);

  stats.mean = graph.mean_degree();
  stats.min = *std::min_element(degrees.begin(), degrees.end());
  stats.max = *std::max_element(degrees.begin(), degrees.end());

  double sq = 0.0;
  for (const NodeId d : degrees) {
    const double diff = static_cast<double>(d) - stats.mean;
    sq += diff * diff;
  }
  stats.variance = sq / static_cast<double>(n);

  // Gini coefficient over the degree sequence.
  std::sort(degrees.begin(), degrees.end());
  const double total = static_cast<double>(graph.total_degree());
  if (total > 0) {
    double weighted = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      weighted += static_cast<double>(i + 1) * static_cast<double>(degrees[i]);
    }
    stats.gini = (2.0 * weighted) / (static_cast<double>(n) * total) -
                 (static_cast<double>(n) + 1.0) / static_cast<double>(n);
  }
  return stats;
}

std::uint64_t triangle_count(const CsrGraph& graph) {
  // For each edge (u, v), count common neighbors w > v to count each triangle
  // exactly once (u < v < w ordering over canonical edges).
  std::uint64_t triangles = 0;
  for (const auto& [u, v] : graph.edges()) {
    const auto nu = graph.neighbors(u);
    const auto nv = graph.neighbors(v);
    auto iu = std::upper_bound(nu.begin(), nu.end(), v);
    auto iv = std::upper_bound(nv.begin(), nv.end(), v);
    while (iu != nu.end() && iv != nv.end()) {
      if (*iu == *iv) {
        ++triangles;
        ++iu;
        ++iv;
      } else if (*iu < *iv) {
        ++iu;
      } else {
        ++iv;
      }
    }
  }
  return triangles;
}

double global_clustering_coefficient(const CsrGraph& graph) {
  std::uint64_t wedges = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const std::uint64_t d = graph.degree(v);
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(triangle_count(graph)) / static_cast<double>(wedges);
}

}  // namespace splpg::graph
