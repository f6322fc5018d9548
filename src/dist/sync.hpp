// Deterministic synchronization of worker model replicas.
//
// Mirrors the paper's two options (§IV-B): gradient averaging (PyTorch
// DDP-style all_reduce after every mini-batch) and model averaging
// (FedAvg-style periodic parameter averaging, used by all baselines). The
// trainer drives the averaging period — once per epoch, or every H local
// steps, the "Learn Locally, Correct Globally" shaped local-SGD regime;
// the collective is the same average_models either way.
//
// The reduction runs in the *serial section* of a barrier — exactly one
// thread sums in a fixed replica order — so results are bit-identical across
// runs regardless of scheduling. An optional CommHook compresses each
// worker's payload inside that same serial section (same fixed order), so
// compressed runs keep the determinism contract; the exact compressed bytes
// are charged to each worker's CommMeter when one is attached.
//
// Membership is elastic: a crashed worker `leave()`s (its replica stops
// contributing and the barrier drops a party, so survivors' collectives
// complete instead of deadlocking), and a recovered worker `rejoin()`s from
// the next phase onward (its error-feedback residuals, if any, are dropped —
// the caller resyncs the replica from the corrected global model).
// Reductions always run over the active replicas in fixed worker order, so
// survivor-only results stay bit-deterministic.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "dist/comm_hook.hpp"
#include "dist/comm_meter.hpp"
#include "nn/module.hpp"
#include "util/barrier.hpp"

namespace splpg::dist {

enum class SyncMode { kGradientAveraging, kModelAveraging };

[[nodiscard]] const char* to_string(SyncMode mode) noexcept;

class DistContext {
 public:
  explicit DistContext(std::uint32_t num_workers);

  [[nodiscard]] std::uint32_t num_workers() const noexcept {
    return static_cast<std::uint32_t>(replicas_.size());
  }

  /// Workers currently participating in collectives.
  [[nodiscard]] std::uint32_t active_workers() const noexcept;
  [[nodiscard]] bool is_active(std::uint32_t worker) const noexcept {
    return active_[worker].load(std::memory_order_acquire);
  }
  /// Lowest-indexed active worker (0 when none is): the replica the
  /// collectives size their buffers from and the trainer evaluates,
  /// checkpoints and corrects.
  [[nodiscard]] std::uint32_t first_active() const noexcept;

  /// Registers worker i's model replica. Must be fully done (all workers)
  /// before any synchronization call; replicas must have identical
  /// parameter lists (same construction seed). Parameter count and
  /// per-parameter shapes are validated against the first registered
  /// replica — a mismatch throws std::invalid_argument naming the worker,
  /// the parameter index, and both shapes.
  void register_replica(std::uint32_t worker, nn::Module* replica);

  /// Installs a compression hook on the collectives. Call after every
  /// replica is registered (and after any checkpoint restore): the hook
  /// snapshot of the current parameters becomes the reference model that
  /// compressed average_models sends deltas against. Pass the kNone hook to
  /// meter dense payload bytes while keeping the collective arithmetic
  /// byte-for-byte identical to the hook-free path.
  void set_comm_hook(std::unique_ptr<CommHook> hook);
  [[nodiscard]] CommHook* comm_hook() const noexcept { return hook_.get(); }

  /// Attaches worker i's CommMeter: each collective charges the worker's
  /// exact serialized (compressed) payload to it via charge_sync. Optional;
  /// without a meter the collective still runs, just unmetered.
  void attach_meter(std::uint32_t worker, CommMeter* meter);

  /// Collective: every worker thread calls this after backward(). On return,
  /// every ACTIVE replica's gradients hold the across-active-worker average
  /// (of the hook-compressed gradients when a compressing hook is set).
  /// Workers whose replica has no gradient for a parameter contribute zeros.
  void all_reduce_gradients();

  /// Collective: every worker thread calls this at a model-averaging point.
  /// On return, every ACTIVE replica's parameters hold the average. With a
  /// compressing hook, each worker sends the compressed delta against the
  /// shared reference model (error feedback carries what compression drops)
  /// and the reference advances to the new average — see DESIGN.md.
  void average_models();

  /// Collective: runs `fn` on exactly one thread while the others wait at
  /// the barrier, then releases everyone. Returns true on the executing
  /// thread. Exception-safe: a throwing `fn` releases the others before the
  /// exception propagates on the executor.
  bool run_serial(const std::function<void()>& fn) { return barrier_.arrive_and_wait(fn); }

  /// A crashed/stopping worker leaves the collective: its replica stops
  /// contributing to reductions and the barrier sheds one party, so the
  /// survivors' next collective completes without it.
  void leave(std::uint32_t worker);

  /// Re-admits a recovered worker (replica restored from checkpoint by the
  /// caller — under compression that checkpoint IS the corrected global
  /// model, so the resynced worker re-enters consistent with the reference).
  /// Safe to call from inside a `run_serial` section; the worker
  /// participates from the next phase onward. Any error-feedback residual
  /// the hook carried for this worker is dropped.
  void rejoin(std::uint32_t worker);

 private:
  void charge(std::uint32_t worker, std::uint64_t bytes);

  util::Barrier barrier_;
  std::vector<nn::Module*> replicas_;
  std::unique_ptr<std::atomic<bool>[]> active_;
  std::vector<CommMeter*> meters_;
  std::unique_ptr<CommHook> hook_;
  /// Reference model for compressed average_models: the last synchronized
  /// global parameters (snapshot at set_comm_hook, advanced after each
  /// compressed average). Serial-section-only state.
  std::vector<tensor::Matrix> global_ref_;
};

}  // namespace splpg::dist
