#include "serving/embedding_cache.hpp"

#include <algorithm>
#include <stdexcept>

namespace splpg::serving {

using graph::NodeId;

EmbeddingCache::EmbeddingCache(std::size_t capacity, std::size_t row_bytes)
    : capacity_(capacity), row_bytes_(row_bytes) {
  if (row_bytes_ == 0) throw std::invalid_argument("EmbeddingCache: row_bytes must be > 0");
}

std::size_t EmbeddingCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void EmbeddingCache::check_row_size_(std::size_t got) const {
  if (got != row_bytes_) {
    throw std::invalid_argument("EmbeddingCache: row size mismatch");
  }
}

bool EmbeddingCache::lookup(NodeId node, std::span<std::byte> out) {
  check_row_size_(out.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const auto it = entries_.find(node);
  if (it == entries_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  if (it->second.lru != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);  // refresh recency
  }
  std::copy(it->second.row.begin(), it->second.row.end(), out.begin());
  return true;
}

void EmbeddingCache::insert(NodeId node, std::span<const std::byte> row) {
  check_row_size_(row.size());
  const std::lock_guard<std::mutex> lock(mutex_);
  if (capacity_ == 0 || entries_.count(node) != 0) return;
  if (entries_.size() == capacity_) {
    // Evict the least-recently-used entry.
    const NodeId victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
    ++stats_.evictions;
  }
  lru_.push_front(node);
  Entry entry;
  entry.row.assign(row.begin(), row.end());
  entry.lru = lru_.begin();
  entries_.emplace(node, std::move(entry));
}

void EmbeddingCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.evictions += entries_.size();
  entries_.clear();
  lru_.clear();
}

EmbeddingCache::Stats EmbeddingCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace splpg::serving
