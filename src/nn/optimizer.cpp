#include "nn/optimizer.hpp"

#include <cmath>

#include "nn/checkpoint.hpp"
#include "tensor/vec.hpp"

namespace splpg::nn {

namespace {

constexpr float kBeta1 = 0.9F;
constexpr float kBeta2 = 0.999F;
constexpr float kEpsilon = 1e-8F;

}  // namespace

void Optimizer::save_state(std::ostream& out) const { (void)out; }

void Optimizer::load_state(std::istream& in) { (void)in; }

void Sgd::step() {
  for (auto& p : *parameters_) {
    if (p.grad().empty()) continue;
    p.mutable_value().axpy_inplace(-learning_rate_, p.grad());
  }
}

Adam::Adam(Module& module, float learning_rate)
    : Optimizer(module), learning_rate_(learning_rate) {
  m_.reserve(parameters_->size());
  v_.reserve(parameters_->size());
  for (const auto& p : *parameters_) {
    m_.emplace_back(p.value().rows(), p.value().cols());
    v_.emplace_back(p.value().rows(), p.value().cols());
  }
}

void Adam::step() {
  ++t_;
  const float bias1 = 1.0F - std::pow(kBeta1, static_cast<float>(t_));
  const float bias2 = 1.0F - std::pow(kBeta2, static_cast<float>(t_));
  // adam_step is one of the bit-identical-on-every-backend kernels (see
  // vec.hpp), so checkpoints and resumed runs never depend on SPLPG_VEC.
  const tensor::VecKernels& kern = tensor::vec_kernels();
  for (std::size_t i = 0; i < parameters_->size(); ++i) {
    auto& p = (*parameters_)[i];
    if (p.grad().empty()) continue;
    const auto grad = p.grad().data();
    kern.adam_step_f32(p.mutable_value().data().data(), m_[i].data().data(),
                       v_[i].data().data(), grad.data(), grad.size(), kBeta1, kBeta2,
                       learning_rate_, bias1, bias2, kEpsilon);
  }
}

void Adam::save_state(std::ostream& out) const { save_optimizer_section(out, t_, m_, v_); }

void Adam::load_state(std::istream& in) { t_ = load_optimizer_section(in, m_, v_); }

}  // namespace splpg::nn
