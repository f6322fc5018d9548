#include "dist/cost_model.hpp"

namespace splpg::dist {

LinkProfile pcie_gen4_link() {
  // ~24 GB/s sustained on x16, negligible per-transfer latency at this
  // granularity (batched device copies).
  return {"pcie-gen4-x16", 24e9, 2e-6};
}

LinkProfile datacenter_25g() {
  // 25 GbE ≈ 3 GB/s payload; ~20 us RPC round-trip overhead per fetch.
  return {"25-gbe", 3e9, 20e-6};
}

LinkProfile commodity_1g() {
  // 1 GbE ≈ 118 MB/s payload; ~100 us per RPC.
  return {"1-gbe", 118e6, 100e-6};
}

CostEstimate estimate_cost(const CommStats& stats, const LinkProfile& link) {
  CostEstimate out;
  if (link.bandwidth_bytes_per_sec > 0.0) {
    out.transfer_seconds =
        static_cast<double>(stats.total_bytes()) / link.bandwidth_bytes_per_sec;
  }
  out.latency_seconds =
      static_cast<double>(stats.structure_fetches + stats.feature_fetches) * link.latency_sec;
  return out;
}

}  // namespace splpg::dist
