#include "sampling/neighbor_sampler.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "util/thread_pool.hpp"

namespace splpg::sampling {

using graph::NodeId;
using util::Rng;

void GraphProvider::append_neighbors(NodeId v, std::vector<NodeId>& neighbors,
                                     std::vector<float>& weights) {
  const auto adjacent = graph_->neighbors(v);
  const auto adjacent_weights = graph_->neighbor_weights(v);
  neighbors.insert(neighbors.end(), adjacent.begin(), adjacent.end());
  if (adjacent_weights.empty()) {
    weights.insert(weights.end(), adjacent.size(), 1.0F);
  } else {
    weights.insert(weights.end(), adjacent_weights.begin(), adjacent_weights.end());
  }
}

std::size_t ComputationGraph::total_edges() const noexcept {
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.num_edges();
  return total;
}

NeighborSampler::NeighborSampler(std::vector<std::uint32_t> fanouts)
    : fanouts_(std::move(fanouts)) {
  if (fanouts_.empty()) throw std::invalid_argument("NeighborSampler: need >= 1 layer");
}

namespace {

// Per-chunk scratch for one layer expansion. `adj_*` hold the fetched
// neighborhoods of the chunk's destinations (offsets indexed locally);
// `picked_*` hold the post-fanout selections, concatenated per destination.
struct ChunkScratch {
  std::vector<NodeId> adj_nodes;
  std::vector<float> adj_weights;
  std::vector<std::size_t> adj_offsets;
  std::vector<NodeId> picked_nodes;
  std::vector<float> picked_weights;
  std::vector<std::uint32_t> picked_counts;
};

}  // namespace

ComputationGraph NeighborSampler::sample(AdjacencyProvider& adjacency,
                                         std::span<const NodeId> seeds, Rng& rng,
                                         util::ThreadPool* pool,
                                         std::size_t chunk_size) const {
  // Deduplicate seeds, preserving first-seen order.
  std::vector<NodeId> dst;
  {
    std::unordered_map<NodeId, std::uint32_t> index;
    index.reserve(seeds.size() * 2);
    for (const NodeId s : seeds) {
      if (index.emplace(s, static_cast<std::uint32_t>(dst.size())).second) dst.push_back(s);
    }
  }
  if (dst.empty()) throw std::invalid_argument("NeighborSampler: empty seed set");
  if (chunk_size == 0) chunk_size = 1;

  // The caller's stream advances by exactly ONE draw per sample() call, no
  // matter how many nodes/layers/chunks get expanded. Everything below runs
  // off streams pre-split from this base seed, which is what makes the
  // output a pure function of (rng state, seeds, fanouts, chunk_size) —
  // independent of pool width and scheduling.
  const util::Rng base(rng.next());

  ComputationGraph out;
  out.blocks.resize(fanouts_.size());

  // Build from the seed layer (last block) towards the inputs.
  for (std::size_t layer = fanouts_.size(); layer-- > 0;) {
    Block& block = out.blocks[layer];
    block.dst_count = dst.size();
    block.src_nodes = dst;  // dst prefix

    const std::uint32_t fanout = fanouts_[layer];
    const std::size_t num_chunks = (dst.size() + chunk_size - 1) / chunk_size;
    std::vector<ChunkScratch> chunks(num_chunks);

    // Phase A — fetch every destination's neighborhood. Stateful providers
    // (WorkerView meters reads and consumes fault-injection randomness) must
    // observe reads serially in ascending destination order; read-only
    // providers can fetch chunk-parallel.
    const auto fetch_chunk = [&](std::size_t c) {
      ChunkScratch& s = chunks[c];
      const std::size_t lo = c * chunk_size;
      const std::size_t hi = std::min(dst.size(), lo + chunk_size);
      s.adj_offsets.assign(1, 0);
      for (std::size_t d = lo; d < hi; ++d) {
        adjacency.append_neighbors(dst[d], s.adj_nodes, s.adj_weights);
        s.adj_offsets.push_back(s.adj_nodes.size());
      }
    };
    util::for_each_index(adjacency.concurrent_safe() ? pool : nullptr, num_chunks, fetch_chunk);

    // Phase B — fanout picks. Each chunk samples from its own pre-split
    // stream and writes only its own scratch, so running this on the pool
    // or inline produces the same bytes.
    const auto pick_chunk = [&](std::size_t c) {
      ChunkScratch& s = chunks[c];
      const std::size_t lo = c * chunk_size;
      const std::size_t hi = std::min(dst.size(), lo + chunk_size);
      Rng chunk_rng = base.split("layer", layer).split("chunk", c);
      for (std::size_t d = lo; d < hi; ++d) {
        const std::size_t begin = s.adj_offsets[d - lo];
        const std::size_t available = s.adj_offsets[d - lo + 1] - begin;
        if (fanout == 0 || available <= fanout) {
          for (std::size_t i = 0; i < available; ++i) {
            s.picked_nodes.push_back(s.adj_nodes[begin + i]);
            s.picked_weights.push_back(s.adj_weights[begin + i]);
          }
          s.picked_counts.push_back(static_cast<std::uint32_t>(available));
        } else {
          for (const std::uint32_t pick : chunk_rng.sample_without_replacement(
                   static_cast<std::uint32_t>(available), fanout)) {
            s.picked_nodes.push_back(s.adj_nodes[begin + pick]);
            s.picked_weights.push_back(s.adj_weights[begin + pick]);
          }
          s.picked_counts.push_back(fanout);
        }
      }
    };
    util::for_each_index(pool, num_chunks, pick_chunk);

    // Phase C — serial merge in ascending (chunk, destination, pick) order.
    // src_nodes ordering (and hence the whole block) is fixed by this order.
    std::unordered_map<NodeId, std::uint32_t> src_index;
    src_index.reserve(dst.size() * 4);
    for (std::uint32_t i = 0; i < dst.size(); ++i) src_index.emplace(dst[i], i);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const ChunkScratch& s = chunks[c];
      std::size_t pick_pos = 0;
      for (std::size_t local = 0; local < s.picked_counts.size(); ++local) {
        const auto d = static_cast<std::uint32_t>(c * chunk_size + local);
        for (std::uint32_t i = 0; i < s.picked_counts[local]; ++i, ++pick_pos) {
          const NodeId neighbor = s.picked_nodes[pick_pos];
          const auto [it, inserted] = src_index.emplace(
              neighbor, static_cast<std::uint32_t>(block.src_nodes.size()));
          if (inserted) block.src_nodes.push_back(neighbor);
          block.edge_src.push_back(it->second);
          block.edge_dst.push_back(d);
          block.edge_weight.push_back(s.picked_weights[pick_pos]);
        }
      }
    }
    // The next (closer-to-input) layer computes embeddings for every node
    // this layer reads.
    dst = block.src_nodes;
  }
  return out;
}

}  // namespace splpg::sampling
