// Base class for anything holding trainable parameters.
//
// Parameters are Tensor leaves with requires_grad = true; submodules register
// their parameters into the owner so optimizers and the distributed
// synchronizers (gradient / model averaging) can iterate one flat list whose
// order is identical across worker replicas (construction order).
#pragma once

#include <vector>

#include "tensor/autograd.hpp"

namespace splpg::nn {

class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  Module(Module&&) = default;
  Module& operator=(Module&&) = default;

  /// Flat parameter list in registration order.
  [[nodiscard]] std::vector<tensor::Tensor>& parameters() noexcept { return parameters_; }
  [[nodiscard]] const std::vector<tensor::Tensor>& parameters() const noexcept {
    return parameters_;
  }

  void zero_grad() noexcept {
    for (auto& p : parameters_) p.zero_grad();
  }

 protected:
  tensor::Tensor register_parameter(tensor::Matrix value) {
    auto param = tensor::Tensor::parameter(std::move(value));
    parameters_.push_back(param);
    return param;
  }

  /// Adopts a child's parameters (child must outlive or share tensors).
  void register_module(Module& child) {
    for (auto& p : child.parameters()) parameters_.push_back(p);
  }

 private:
  std::vector<tensor::Tensor> parameters_;
};

}  // namespace splpg::nn
