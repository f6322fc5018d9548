// Network cost model: convert metered graph-data transfer into estimated
// wall-clock transfer time for a target deployment.
//
// The paper evaluates single-machine multi-GPU training and notes SpLPG "can
// be easily extended to the multi-machine multi-GPU scenario" — where the
// byte counts the CommMeter records would cross a real network. This model
// prices a CommStats against a link profile (bandwidth + per-fetch latency),
// letting benches report estimated transfer seconds alongside raw bytes.
#pragma once

#include <string>

#include "dist/comm_meter.hpp"

namespace splpg::dist {

struct LinkProfile {
  std::string name;
  double bandwidth_bytes_per_sec = 0.0;  // sustained payload bandwidth
  double latency_sec = 0.0;              // per deduplicated fetch (RPC) overhead
};

/// Common deployment points.
[[nodiscard]] LinkProfile pcie_gen4_link();     // single machine, GPU<->host
[[nodiscard]] LinkProfile datacenter_25g();     // multi-machine, 25 GbE
[[nodiscard]] LinkProfile commodity_1g();       // commodity cluster, 1 GbE

struct CostEstimate {
  double transfer_seconds = 0.0;  // bytes / bandwidth
  double latency_seconds = 0.0;   // fetches * latency
  [[nodiscard]] double total_seconds() const noexcept {
    return transfer_seconds + latency_seconds;
  }
};

/// Prices the metered transfer volume on the given link. Fetch count uses
/// the deduplicated structure+feature fetch counters (one RPC each).
[[nodiscard]] CostEstimate estimate_cost(const CommStats& stats, const LinkProfile& link);

}  // namespace splpg::dist
