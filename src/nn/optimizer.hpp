// First-order optimizers over a Module's parameter list.
//
// Workers keep per-replica optimizer state; with gradient averaging the
// replicas stay bit-identical (same init, same averaged gradients, same
// deterministic update), which mirrors PyTorch DDP semantics.
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/module.hpp"
#include "tensor/matrix.hpp"

namespace splpg::nn {

class Optimizer {
 public:
  explicit Optimizer(Module& module) : parameters_(&module.parameters()) {}
  virtual ~Optimizer() = default;

  /// Applies one update from the current gradients.
  virtual void step() = 0;

  /// (De)serializes the optimizer's internal state (step count, moment
  /// estimates) as nn/checkpoint's optimizer-state section. Loading into an optimizer built over an identically shaped
  /// module makes subsequent steps bit-identical to never having paused —
  /// the exact-resume contract nn::save_train_state builds on. Stateless
  /// optimizers (SGD) write/read nothing.
  virtual void save_state(std::ostream& out) const;
  /// Throws std::runtime_error on format errors, std::invalid_argument on
  /// shape/arity mismatches with this optimizer's parameters.
  virtual void load_state(std::istream& in);

  void zero_grad() noexcept {
    for (auto& p : *parameters_) p.zero_grad();
  }

 protected:
  std::vector<tensor::Tensor>* parameters_;
};

class Sgd final : public Optimizer {
 public:
  Sgd(Module& module, float learning_rate) : Optimizer(module), learning_rate_(learning_rate) {}

  void step() override;

 private:
  float learning_rate_;
};

/// Adam with the standard beta1 = 0.9, beta2 = 0.999, epsilon = 1e-8.
class Adam final : public Optimizer {
 public:
  explicit Adam(Module& module, float learning_rate = 1e-3F);

  void step() override;

  void save_state(std::ostream& out) const override;
  void load_state(std::istream& in) override;

 private:
  float learning_rate_;
  std::uint64_t t_ = 0;
  std::vector<tensor::Matrix> m_;
  std::vector<tensor::Matrix> v_;
};

}  // namespace splpg::nn
