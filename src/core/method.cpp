#include "core/method.hpp"

#include <stdexcept>

namespace splpg::core {

using dist::NegativeScope;
using dist::RemoteAdjacency;
using dist::WorkerPolicy;

std::string to_string(Method method) {
  switch (method) {
    case Method::kCentralized: return "centralized";
    case Method::kPsgdPa: return "psgd_pa";
    case Method::kPsgdPaPlus: return "psgd_pa+";
    case Method::kRandomTma: return "random_tma";
    case Method::kRandomTmaPlus: return "random_tma+";
    case Method::kSuperTma: return "super_tma";
    case Method::kSuperTmaPlus: return "super_tma+";
    case Method::kLlcg: return "llcg";
    case Method::kSplpg: return "splpg";
    case Method::kSplpgPlus: return "splpg+";
    case Method::kSplpgMinus: return "splpg-";
    case Method::kSplpgMinusMinus: return "splpg--";
  }
  return "unknown";
}

WorkerPolicy worker_policy(Method method) {
  switch (method) {
    case Method::kCentralized:
      // Single worker owning everything; policy fields are moot but "full
      // local" keeps every read free.
      return {true, RemoteAdjacency::kNone, NegativeScope::kGlobal};
    case Method::kPsgdPa:
    case Method::kRandomTma:
    case Method::kSuperTma:
    case Method::kLlcg:
    case Method::kSplpgMinusMinus:
      return {false, RemoteAdjacency::kNone, NegativeScope::kLocal};
    case Method::kPsgdPaPlus:
    case Method::kRandomTmaPlus:
    case Method::kSuperTmaPlus:
      return {false, RemoteAdjacency::kFull, NegativeScope::kGlobal};
    case Method::kSplpg:
      return {true, RemoteAdjacency::kSparsified, NegativeScope::kGlobal};
    case Method::kSplpgPlus:
      return {true, RemoteAdjacency::kFull, NegativeScope::kGlobal};
    case Method::kSplpgMinus:
      return {true, RemoteAdjacency::kNone, NegativeScope::kLocal};
  }
  throw std::invalid_argument("unknown method");
}

std::unique_ptr<partition::Partitioner> method_partitioner(Method method,
                                                           std::uint32_t super_clusters_per_part) {
  switch (method) {
    case Method::kRandomTma:
    case Method::kRandomTmaPlus:
      return std::make_unique<partition::RandomPartitioner>();
    case Method::kSuperTma:
    case Method::kSuperTmaPlus:
      return std::make_unique<partition::SuperPartitioner>(super_clusters_per_part);
    default:
      return std::make_unique<partition::MetisLikePartitioner>();
  }
}

bool uses_sparsification(Method method) { return method == Method::kSplpg; }

bool uses_global_correction(Method method) { return method == Method::kLlcg; }

}  // namespace splpg::core
