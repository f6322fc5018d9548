#include "dist/sync.hpp"

#include <stdexcept>
#include <string>

namespace splpg::dist {

const char* to_string(SyncMode mode) noexcept {
  switch (mode) {
    case SyncMode::kGradientAveraging: return "gradient";
    case SyncMode::kModelAveraging: return "model";
  }
  return "?";
}

DistContext::DistContext(std::uint32_t num_workers)
    : barrier_(num_workers),
      replicas_(num_workers, nullptr),
      active_(std::make_unique<std::atomic<bool>[]>(num_workers)),
      meters_(num_workers, nullptr) {
  if (num_workers == 0) throw std::invalid_argument("DistContext: need >= 1 worker");
  for (std::uint32_t w = 0; w < num_workers; ++w) {
    active_[w].store(true, std::memory_order_relaxed);
  }
}

std::uint32_t DistContext::active_workers() const noexcept {
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < num_workers(); ++w) {
    if (active_[w].load(std::memory_order_acquire)) ++count;
  }
  return count;
}

void DistContext::register_replica(std::uint32_t worker, nn::Module* replica) {
  if (worker >= replicas_.size()) throw std::out_of_range("DistContext: bad worker id");
  if (replica != nullptr) {
    for (std::uint32_t w = 0; w < num_workers(); ++w) {
      if (replicas_[w] == nullptr || w == worker) continue;
      const auto& have = replicas_[w]->parameters();
      const auto& incoming = replica->parameters();
      if (have.size() != incoming.size()) {
        throw std::invalid_argument(
            "DistContext: replica for worker " + std::to_string(worker) + " has " +
            std::to_string(incoming.size()) + " parameters, worker " + std::to_string(w) +
            "'s has " + std::to_string(have.size()) +
            " (replicas must be constructed identically)");
      }
      for (std::size_t i = 0; i < have.size(); ++i) {
        const auto& a = have[i].value();
        const auto& b = incoming[i].value();
        if (a.rows() != b.rows() || a.cols() != b.cols()) {
          throw std::invalid_argument(
              "DistContext: replica for worker " + std::to_string(worker) + " parameter " +
              std::to_string(i) + " has shape " + std::to_string(b.rows()) + "x" +
              std::to_string(b.cols()) + ", worker " + std::to_string(w) + "'s is " +
              std::to_string(a.rows()) + "x" + std::to_string(a.cols()) +
              " (replicas must be constructed identically)");
        }
      }
      break;  // all registered replicas already agree with worker w's
    }
  }
  replicas_[worker] = replica;
}

void DistContext::set_comm_hook(std::unique_ptr<CommHook> hook) {
  hook_ = std::move(hook);
  global_ref_.clear();
  if (!hook_ || hook_->kind() == CommHookKind::kNone) return;
  // Snapshot the reference model for delta compression in average_models.
  // All replicas are identical here (same construction seed, or the same
  // restored checkpoint), so any registered one serves.
  const nn::Module* source = nullptr;
  for (const auto* replica : replicas_) {
    if (replica != nullptr) {
      source = replica;
      break;
    }
  }
  if (source == nullptr) {
    throw std::logic_error("DistContext: set_comm_hook before any register_replica");
  }
  global_ref_.reserve(source->parameters().size());
  for (const auto& p : source->parameters()) global_ref_.push_back(p.value());
}

void DistContext::attach_meter(std::uint32_t worker, CommMeter* meter) {
  if (worker >= meters_.size()) throw std::out_of_range("DistContext: bad worker id");
  meters_[worker] = meter;
}

void DistContext::leave(std::uint32_t worker) {
  if (worker >= replicas_.size()) throw std::out_of_range("DistContext: bad worker id");
  active_[worker].store(false, std::memory_order_release);
  barrier_.arrive_and_drop();
}

void DistContext::rejoin(std::uint32_t worker) {
  if (worker >= replicas_.size()) throw std::out_of_range("DistContext: bad worker id");
  if (active_[worker].load(std::memory_order_acquire)) {
    throw std::logic_error("DistContext: rejoin of an active worker");
  }
  if (hook_) hook_->reset_worker(worker);
  active_[worker].store(true, std::memory_order_release);
  barrier_.add_party();
}

std::uint32_t DistContext::first_active() const noexcept {
  for (std::uint32_t w = 0; w < num_workers(); ++w) {
    if (is_active(w)) return w;
  }
  return 0;
}

void DistContext::charge(std::uint32_t worker, std::uint64_t bytes) {
  if (meters_[worker] != nullptr) meters_[worker]->charge_sync(bytes);
}

void DistContext::all_reduce_gradients() {
  barrier_.arrive_and_wait([this] {
    const std::uint32_t n = active_workers();
    if (n == 0) return;
    const nn::Module* first = replicas_[first_active()];
    const bool compressing = hook_ && hook_->kind() != CommHookKind::kNone;
    const float inv = 1.0F / static_cast<float>(n);
    const std::size_t num_params = first->parameters().size();
    tensor::Matrix decompressed;
    for (std::size_t i = 0; i < num_params; ++i) {
      // Average in fixed worker order into a scratch buffer...
      tensor::Matrix average(first->parameters()[i].value().rows(),
                             first->parameters()[i].value().cols());
      for (std::uint32_t w = 0; w < num_workers(); ++w) {
        if (!is_active(w)) continue;
        auto& grad = replicas_[w]->parameters()[i].mutable_grad();
        if (grad.empty()) continue;  // this worker skipped the round
        if (compressing) {
          charge(w, hook_->compress(w, i, grad, decompressed));
          average.add_inplace(decompressed);
        } else {
          // The hook-free (and kNone) arithmetic: byte-for-byte the
          // pre-hook collective, so the default regime is a no-op change.
          if (hook_) charge(w, hook_->payload_bytes(grad));
          average.add_inplace(grad);
        }
      }
      average.scale_inplace(inv);
      // ...then distribute to every active replica.
      for (std::uint32_t w = 0; w < num_workers(); ++w) {
        if (!is_active(w)) continue;
        auto& grad = replicas_[w]->parameters()[i].mutable_grad();
        grad = average;
      }
    }
  });
}

void DistContext::average_models() {
  barrier_.arrive_and_wait([this] {
    const std::uint32_t n = active_workers();
    if (n == 0) return;
    const nn::Module* first = replicas_[first_active()];
    const bool compressing = hook_ && hook_->kind() != CommHookKind::kNone;
    const float inv = 1.0F / static_cast<float>(n);
    const std::size_t num_params = first->parameters().size();
    if (compressing && global_ref_.size() != num_params) {
      throw std::logic_error(
          "DistContext: compressing hook installed before replicas were registered");
    }
    tensor::Matrix delta;
    tensor::Matrix decompressed;
    for (std::size_t i = 0; i < num_params; ++i) {
      if (compressing) {
        // Each worker sends compress(params_w - reference); the averaged
        // decompressed delta advances the reference, which is then
        // broadcast. Error feedback inside the hook carries whatever the
        // compression dropped into the next round.
        tensor::Matrix& ref = global_ref_[i];
        tensor::Matrix delta_average(ref.rows(), ref.cols());
        for (std::uint32_t w = 0; w < num_workers(); ++w) {
          if (!is_active(w)) continue;
          delta = tensor::sub(replicas_[w]->parameters()[i].value(), ref);
          charge(w, hook_->compress(w, i, delta, decompressed));
          delta_average.add_inplace(decompressed);
        }
        delta_average.scale_inplace(inv);
        ref.add_inplace(delta_average);
        for (std::uint32_t w = 0; w < num_workers(); ++w) {
          if (!is_active(w)) continue;
          replicas_[w]->parameters()[i].mutable_value() = ref;
        }
      } else {
        tensor::Matrix average(first->parameters()[i].value().rows(),
                               first->parameters()[i].value().cols());
        for (std::uint32_t w = 0; w < num_workers(); ++w) {
          if (!is_active(w)) continue;
          if (hook_) charge(w, hook_->payload_bytes(replicas_[w]->parameters()[i].value()));
          average.add_inplace(replicas_[w]->parameters()[i].value());
        }
        average.scale_inplace(inv);
        for (std::uint32_t w = 0; w < num_workers(); ++w) {
          if (!is_active(w)) continue;
          replicas_[w]->parameters()[i].mutable_value() = average;
        }
      }
    }
  });
}

}  // namespace splpg::dist
