// Retry policy for remote fetches in the distributed simulation.
//
// Every remote structure/feature fetch in WorkerView flows through a
// RetryPolicy: a transiently failed attempt (decided by the FaultInjector)
// is re-tried up to `max_attempts` times with exponential backoff and
// deterministic jitter (drawn from the worker's private fault stream), all
// in *simulated* time — nothing sleeps, the seconds are accumulated in
// FaultStats (reported in TrainResult::fault). A fetch that exhausts its
// attempts fails permanently: WorkerView throws RemoteFetchError and the
// trainer degrades that batch gracefully (local negative candidates, no
// remote reads) instead of aborting.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "graph/csr_graph.hpp"
#include "util/rng.hpp"

namespace splpg::dist {

struct RetryPolicy {
  /// Total tries per fetch (first attempt included). Must be >= 1.
  std::uint32_t max_attempts = 4;

  /// Backoff before retry k (1-based):
  ///   min(1 ms * 2^(k-1), 100 ms) * (1 + 0.1 * u),
  /// with u drawn uniformly from [0, 1) on the worker's fault stream.
  [[nodiscard]] static double backoff_seconds(std::uint32_t retry_index, util::Rng& rng) {
    double backoff = 1e-3;
    for (std::uint32_t k = 1; k < retry_index; ++k) backoff *= 2.0;
    if (backoff > 0.1) backoff = 0.1;
    return backoff * (1.0 + 0.1 * rng.uniform());
  }
};

/// A remote fetch that failed permanently (retries exhausted). Carries the
/// requesting partition and node so the degradation path is debuggable.
class RemoteFetchError : public std::runtime_error {
 public:
  RemoteFetchError(std::uint32_t part, graph::NodeId node, const std::string& what_kind)
      : std::runtime_error("remote " + what_kind + " fetch of node " + std::to_string(node) +
                           " by partition " + std::to_string(part) +
                           " failed permanently (retries exhausted)"),
        part_(part),
        node_(node) {}

  [[nodiscard]] std::uint32_t part() const noexcept { return part_; }
  [[nodiscard]] graph::NodeId node() const noexcept { return node_; }

 private:
  std::uint32_t part_;
  graph::NodeId node_;
};

}  // namespace splpg::dist
