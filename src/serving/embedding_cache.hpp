// LRU cache of per-node serving rows (precomputed embeddings).
//
// The serving hot path is dominated by embedding access (a cache miss costs
// one ServingModel::compute_row: layers 2..L over the node's full (L-1)-hop
// neighborhood, plus layer 1 for those of its nodes whose first-layer row
// the model has not computed yet; a hit is one row copy), so the cache is
// the layer that makes "millions of users" latency possible.
// Content-agnostic: rows are
// fixed-size byte blobs in whatever format the ServingModel emits (f32 or
// int8 + scale), and because serving rows are pure functions of the node
// id, an entry that is evicted and later recomputed holds identical bytes —
// the cache can never serve a stale or schedule-dependent answer.
//
// Capacity 0 is a passthrough: every lookup misses and inserts are dropped,
// which is how the bench measures the uncached baseline.
//
// Thread-safe: a single mutex guards map + LRU list + counters; lookup
// copies the row out under the lock so callers never hold references into
// the cache. Counter contract: hits + misses == lookups, always.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/csr_graph.hpp"

namespace splpg::serving {

class EmbeddingCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  /// `capacity` bounds the number of entries; `row_bytes` is the fixed size
  /// of every row.
  EmbeddingCache(std::size_t capacity, std::size_t row_bytes);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t row_bytes() const noexcept { return row_bytes_; }

  /// Entries currently resident.
  [[nodiscard]] std::size_t size() const;

  /// Copies the row for `node` into `out` (row_bytes() bytes) and returns
  /// true on a hit; counts one lookup either way. A hit refreshes LRU
  /// recency.
  bool lookup(graph::NodeId node, std::span<std::byte> out);

  /// Stores a copy of `row`, evicting the least-recently-used entry when at
  /// capacity. No-op at capacity 0 (passthrough) and for nodes already
  /// resident (rows are pure functions of the node, so a re-insert has
  /// nothing new to say).
  void insert(graph::NodeId node, std::span<const std::byte> row);

  /// Drops every entry (counted as evictions); counters survive. Models
  /// mid-flight invalidation pressure.
  void clear();

  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::vector<std::byte> row;
    std::list<graph::NodeId>::iterator lru;
  };

  void check_row_size_(std::size_t got) const;

  const std::size_t capacity_;
  const std::size_t row_bytes_;
  mutable std::mutex mutex_;
  std::unordered_map<graph::NodeId, Entry> entries_;
  std::list<graph::NodeId> lru_;  // front = most recently used
  Stats stats_;
};

}  // namespace splpg::serving
