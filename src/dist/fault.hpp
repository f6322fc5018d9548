// Deterministic fault injection for the distributed-training simulation.
//
// A FaultPlan describes a cluster's misbehavior: a per-attempt transient
// failure probability for remote fetches, an injected per-fetch latency
// (priced by dist/cost_model), per-worker straggler slowdown factors, and
// scheduled worker crashes at a given (epoch, batch). A FaultInjector draws
// every fault decision from per-worker Rng streams derived from the run
// seed, so fault runs are bit-reproducible regardless of thread scheduling —
// the same guarantee the rest of the trainer gives.
//
// Outcomes are metered in FaultStats (per worker, alongside CommStats in
// CommMeter; aggregated into TrainResult).
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace splpg::dist {

/// A scheduled worker crash: the worker dies at the start of batch `batch`
/// (0-based round index) of epoch `epoch` (1-based, like the trainer loop).
struct CrashEvent {
  std::uint32_t worker = 0;
  std::uint32_t epoch = 1;
  std::uint32_t batch = 0;
};

struct FaultPlan {
  /// Probability that a single remote-fetch attempt fails transiently.
  double transient_fetch_failure_rate = 0.0;
  /// Simulated latency of one remote-fetch attempt (seconds). Charged to
  /// FaultStats::injected_latency_seconds.
  double fetch_latency_seconds = 0.0;
  /// Per-worker slowdown factors (>= 1) multiplying that worker's fetch
  /// latency. Empty = no stragglers; otherwise one entry per worker.
  std::vector<double> straggler_slowdown;
  /// Scheduled worker crashes (recovered at the next epoch boundary).
  std::vector<CrashEvent> crashes;

  [[nodiscard]] bool empty() const noexcept {
    return transient_fetch_failure_rate <= 0.0 && fetch_latency_seconds <= 0.0 &&
           straggler_slowdown.empty() && crashes.empty();
  }
};

/// Throws std::invalid_argument if the plan is malformed for `num_workers`:
/// rates outside [0, 1), negative latencies, slowdown factors < 1 or of the
/// wrong arity, crash ids out of range, crashes with fewer than two workers,
/// or an epoch in which every worker crashes (no survivor could recover).
void validate_fault_plan(const FaultPlan& plan, std::uint32_t num_workers);

/// Metered fault outcomes, accumulated per worker (in CommMeter) and summed
/// in fixed worker order into TrainResult::fault.
struct FaultStats {
  std::uint64_t transient_failures = 0;   // injected failed fetch attempts
  std::uint64_t retries = 0;              // re-attempts after a transient failure
  std::uint64_t permanent_failures = 0;   // fetches that exhausted the retry policy
  std::uint64_t wasted_bytes = 0;         // payload bytes of failed attempts
  std::uint64_t degraded_batches = 0;     // batches completed via local fallback
  std::uint64_t crashes = 0;              // injected worker crashes
  std::uint64_t recoveries = 0;           // checkpoint-restored worker rejoins

  // Storage faults (io::StorageFaultInjector outcomes + the trainer's
  // self-healing around them).
  std::uint64_t storage_write_faults = 0;        // injected ENOSPC/torn/rename faults
  std::uint64_t storage_read_faults = 0;         // injected bit flips / short reads
  std::uint64_t checkpoint_write_failures = 0;   // checkpoint writes that failed (training continued)
  std::uint64_t checkpoints_skipped_invalid = 0; // corrupt checkpoints skipped by auto-resume

  double injected_latency_seconds = 0.0;  // simulated fetch latency (straggler-scaled)
  double backoff_seconds = 0.0;           // simulated retry backoff

  FaultStats& operator+=(const FaultStats& other) noexcept {
    transient_failures += other.transient_failures;
    retries += other.retries;
    permanent_failures += other.permanent_failures;
    wasted_bytes += other.wasted_bytes;
    degraded_batches += other.degraded_batches;
    crashes += other.crashes;
    recoveries += other.recoveries;
    storage_write_faults += other.storage_write_faults;
    storage_read_faults += other.storage_read_faults;
    checkpoint_write_failures += other.checkpoint_write_failures;
    checkpoints_skipped_invalid += other.checkpoints_skipped_invalid;
    injected_latency_seconds += other.injected_latency_seconds;
    backoff_seconds += other.backoff_seconds;
    return *this;
  }
};

/// Draws fault decisions for a plan. One instance is shared by all workers;
/// each worker only touches its own Rng stream, so concurrent use by
/// distinct workers is safe and deterministic.
class FaultInjector {
 public:
  /// Validates the plan (see validate_fault_plan) and derives one stream per
  /// worker: Rng(seed).split("fault", worker).
  FaultInjector(FaultPlan plan, std::uint64_t seed, std::uint32_t num_workers);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// One Bernoulli draw on `worker`'s stream: does this fetch attempt fail?
  [[nodiscard]] bool fetch_attempt_fails(std::uint32_t worker);

  /// Simulated latency of one fetch attempt by `worker` (straggler-scaled).
  [[nodiscard]] double fetch_latency_seconds(std::uint32_t worker) const noexcept;

  [[nodiscard]] double straggler_factor(std::uint32_t worker) const noexcept;

  /// True iff the plan crashes `worker` at the start of (epoch, batch).
  [[nodiscard]] bool crash_due(std::uint32_t worker, std::uint32_t epoch,
                               std::uint32_t batch) const noexcept;

  /// `worker`'s private fault stream (retry jitter draws share it so every
  /// fault decision stays on one deterministic per-worker sequence).
  [[nodiscard]] util::Rng& rng(std::uint32_t worker) noexcept { return rngs_[worker]; }

 private:
  FaultPlan plan_;
  std::vector<util::Rng> rngs_;
};

}  // namespace splpg::dist
