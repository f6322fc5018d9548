#include "dist/worker_view.hpp"

#include <stdexcept>

namespace splpg::dist {

using graph::Edge;
using graph::NodeId;

namespace {

const char* to_string(RemoteAdjacency remote) {
  switch (remote) {
    case RemoteAdjacency::kNone: return "none";
    case RemoteAdjacency::kFull: return "full";
    case RemoteAdjacency::kSparsified: return "sparsified";
  }
  return "?";
}

}  // namespace

std::string to_string(const WorkerPolicy& policy) {
  std::string out = "{full_neighbors=";
  out += policy.full_neighbors ? "true" : "false";
  out += ", remote=";
  out += to_string(policy.remote);
  out += ", negatives=";
  out += policy.negatives == NegativeScope::kLocal ? "local" : "global";
  out += "}";
  return out;
}

WorkerView::WorkerView(const MasterStore& store, std::uint32_t part, WorkerPolicy policy)
    : store_(&store), part_(part), policy_(policy) {
  if (part >= store.num_parts()) throw std::out_of_range("WorkerView: bad part id");
  if (policy.remote == RemoteAdjacency::kSparsified && !store.has_sparsified()) {
    throw std::logic_error("WorkerView: sparsified graphs not installed in the master store");
  }
}

bool WorkerView::remote_fetch_succeeds(std::uint64_t bytes) {
  if (injector_ == nullptr) return true;
  FaultStats& faults = meter_.faults();
  for (std::uint32_t attempt = 1;; ++attempt) {
    faults.injected_latency_seconds += injector_->fetch_latency_seconds(part_);
    if (!injector_->fetch_attempt_fails(part_)) return true;
    ++faults.transient_failures;
    faults.wasted_bytes += bytes;
    if (attempt >= retry_.max_attempts) {
      ++faults.permanent_failures;
      return false;
    }
    ++faults.retries;
    faults.backoff_seconds += RetryPolicy::backoff_seconds(attempt, injector_->rng(part_));
  }
}

void WorkerView::append_neighbors(NodeId v, std::vector<NodeId>& neighbors,
                                  std::vector<float>& weights) {
  const auto& full = store_->graph();
  if (is_core(v)) {
    if (policy_.full_neighbors) {
      // Full adjacency is local ("cross-partition edges are maintained").
      const auto adjacent = full.neighbors(v);
      neighbors.insert(neighbors.end(), adjacent.begin(), adjacent.end());
      weights.insert(weights.end(), adjacent.size(), 1.0F);
      return;
    }
    // Induced local subgraph; the intra-partition share is free.
    std::uint32_t cross = 0;
    for (const NodeId w : full.neighbors(v)) {
      if (store_->part_of(w) == part_) {
        neighbors.push_back(w);
        weights.push_back(1.0F);
      } else {
        ++cross;
      }
    }
    if (policy_.remote == RemoteAdjacency::kFull && cross > 0 && !degraded_) {
      // Complete data sharing: fetch the cross-partition remainder.
      const std::uint64_t bytes =
          static_cast<std::uint64_t>(cross) * sizeof(NodeId) + sizeof(graph::EdgeId);
      if (!meter_.structure_cached(v) && !remote_fetch_succeeds(bytes)) {
        throw RemoteFetchError(part_, v, "structure");
      }
      meter_.charge_structure(v, bytes);
      for (const NodeId w : full.neighbors(v)) {
        if (store_->part_of(w) != part_) {
          neighbors.push_back(w);
          weights.push_back(1.0F);
        }
      }
    }
    return;
  }

  // Remote node. In degraded mode all remote adjacency behaves as kNone: the
  // node stays a leaf of the computational graph for the rest of the batch.
  if (degraded_) return;
  switch (policy_.remote) {
    case RemoteAdjacency::kNone:
      // No data sharing: the node is a leaf of the computational graph.
      return;
    case RemoteAdjacency::kFull: {
      const std::uint64_t bytes = full.structure_bytes(v);
      if (!meter_.structure_cached(v) && !remote_fetch_succeeds(bytes)) {
        throw RemoteFetchError(part_, v, "structure");
      }
      meter_.charge_structure(v, bytes);
      const auto adjacent = full.neighbors(v);
      neighbors.insert(neighbors.end(), adjacent.begin(), adjacent.end());
      weights.insert(weights.end(), adjacent.size(), 1.0F);
      return;
    }
    case RemoteAdjacency::kSparsified: {
      const auto& sparse = store_->sparsified(store_->part_of(v));
      const std::uint64_t bytes = sparse.structure_bytes(v);
      if (!meter_.structure_cached(v) && !remote_fetch_succeeds(bytes)) {
        throw RemoteFetchError(part_, v, "structure");
      }
      meter_.charge_structure(v, bytes);
      const auto adjacent = sparse.neighbors(v);
      const auto adjacent_weights = sparse.neighbor_weights(v);
      neighbors.insert(neighbors.end(), adjacent.begin(), adjacent.end());
      if (adjacent_weights.empty()) {
        weights.insert(weights.end(), adjacent.size(), 1.0F);
      } else {
        weights.insert(weights.end(), adjacent_weights.begin(), adjacent_weights.end());
      }
      return;
    }
  }
}

tensor::Matrix WorkerView::gather_features(std::span<const NodeId> nodes) {
  const auto& features = store_->features();
  tensor::Matrix out(nodes.size(), features.dim());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    if (!is_local_feature(v)) {
      if (degraded_) continue;  // zero row: feature unavailable this batch
      if (policy_.remote == RemoteAdjacency::kNone) {
        throw std::logic_error("WorkerView: partition " + std::to_string(part_) +
                               " requested remote feature row of node " + std::to_string(v) +
                               " under policy " + dist::to_string(policy_) +
                               " (no data sharing serves non-local rows); the method is "
                               "misconfigured: its sampler/negative scope must stay local");
      }
      const std::uint64_t bytes = features.feature_bytes();
      if (!meter_.features_cached(v) && !remote_fetch_succeeds(bytes)) {
        throw RemoteFetchError(part_, v, "feature");
      }
      meter_.charge_features(v, bytes);
    }
    const auto row = features.row(v);
    std::copy(row.begin(), row.end(), out.row(i).begin());
  }
  return out;
}

std::vector<NodeId> WorkerView::negative_candidates() const {
  if (policy_.negatives == NegativeScope::kLocal) return store_->part_nodes(part_);
  std::vector<NodeId> all(store_->graph().num_nodes());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  return all;
}

std::vector<Edge> WorkerView::owned_positive_edges(std::span<const Edge> train_edges) const {
  const bool intra_only =
      !policy_.full_neighbors && policy_.remote == RemoteAdjacency::kNone;
  std::vector<Edge> owned;
  for (const Edge& edge : train_edges) {
    if (store_->part_of(edge.u) != part_) continue;
    if (intra_only && store_->part_of(edge.v) != part_) continue;  // cross edge lost
    owned.push_back(edge);
  }
  return owned;
}

}  // namespace splpg::dist
