// Thread-local compute-pool context for the tensor kernels.
//
// The autograd graph is built and walked by ONE thread (a trainer worker or
// the caller of an evaluation pass), but the dense kernels inside each op —
// the matmul family and the edge-list aggregation — are row-parallel. Rather
// than threading a pool pointer through every op signature (and every
// backward closure), the executing thread installs its worker pool in a
// thread-local slot for the duration of a forward/backward pass; the
// kernels in matrix.cpp / autograd.cpp consult it and row-block their loops
// when it is set and the problem is large enough to amortize the fan-out.
//
// The determinism contract of DESIGN.md §6 applies: every pooled kernel
// assigns each output row (or edge group) to exactly one task and preserves
// the serial per-element accumulation order, so the bytes are identical at
// every pool width — including none. The size thresholds in the kernels
// affect only scheduling, never results.
#pragma once

#include <limits>

#include "util/thread_pool.hpp"

namespace splpg::tensor {

/// The calling thread's compute pool (nullptr = run kernels serially).
[[nodiscard]] util::ThreadPool* compute_pool() noexcept;

/// Saturating product: SIZE_MAX instead of wrapping. The flop gates feed
/// m*k*n into pool_for; a wrapped product on adversarially large shapes
/// would land BELOW the threshold and silently de-parallelize exactly the
/// kernels that need the pool most.
[[nodiscard]] inline std::size_t sat_mul(std::size_t a, std::size_t b) noexcept {
  std::size_t out = 0;
  return __builtin_mul_overflow(a, b, &out) ? std::numeric_limits<std::size_t>::max() : out;
}

/// Saturating m*k*n for the matmul-family gates.
[[nodiscard]] inline std::size_t sat_flops(std::size_t m, std::size_t k, std::size_t n) noexcept {
  return sat_mul(sat_mul(m, k), n);
}

/// Pooling only pays off once the fan-out cost is amortized; below this many
/// multiply-adds kernels stay serial. Scheduling-only: results are
/// bit-identical either way.
inline constexpr std::size_t kParallelFlopThreshold = 1U << 15U;

/// The calling thread's compute pool when `flops` crosses the threshold,
/// nullptr otherwise (= run this kernel serially).
[[nodiscard]] inline util::ThreadPool* pool_for(std::size_t flops) noexcept {
  util::ThreadPool* pool = compute_pool();
  return (pool != nullptr && flops >= kParallelFlopThreshold) ? pool : nullptr;
}

/// RAII installer: sets the calling thread's compute pool on construction
/// and restores the previous value on destruction. Nesting is allowed.
/// Installing nullptr (or a 1-thread pool) forces serial kernels.
class ComputePoolScope {
 public:
  explicit ComputePoolScope(util::ThreadPool* pool) noexcept;
  ~ComputePoolScope();

  ComputePoolScope(const ComputePoolScope&) = delete;
  ComputePoolScope& operator=(const ComputePoolScope&) = delete;

 private:
  util::ThreadPool* previous_;
};

}  // namespace splpg::tensor
