#include "tensor/int8.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace splpg::tensor {

float quantize_span(std::span<const float> in, std::span<std::int8_t> out) noexcept {
  assert(in.size() == out.size());
  float amax = 0.0F;
  for (const float x : in) amax = std::max(amax, std::fabs(x));
  if (amax <= 0.0F) {
    std::fill(out.begin(), out.end(), std::int8_t{0});
    return 0.0F;
  }
  const float inv_scale = 127.0F / amax;
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<std::int8_t>(std::clamp<long>(std::lroundf(in[i] * inv_scale),
                                                       -127L, 127L));
  }
  return amax / 127.0F;
}

void dequantize_span(std::span<const std::int8_t> in, float scale,
                     std::span<float> out) noexcept {
  assert(in.size() == out.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = static_cast<float>(in[i]) * scale;
  }
}

QuantizedTensor quantize_symmetric(const Matrix& in) {
  QuantizedTensor q;
  q.rows = in.rows();
  q.cols = in.cols();
  q.values.resize(in.size());
  q.scale = quantize_span(in.data(), q.values);
  return q;
}

Matrix dequantize(const QuantizedTensor& in) {
  Matrix out(in.rows, in.cols);
  dequantize_span(in.values, in.scale, out.data());
  return out;
}

float quantize_dequantize_inplace(Matrix& m) {
  const QuantizedTensor q = quantize_symmetric(m);
  dequantize_span(q.values, q.scale, m.data());
  return q.scale * 0.5F;  // amax / 254
}

std::int32_t dot_i8_i32(std::span<const std::int8_t> a, std::span<const std::int8_t> b) noexcept {
  assert(a.size() == b.size());
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

float score_dot_i8(std::span<const std::int8_t> qu, float scale_u,
                   std::span<const std::int8_t> qv, float scale_v) noexcept {
  return static_cast<float>(dot_i8_i32(qu, qv)) * scale_u * scale_v;
}

}  // namespace splpg::tensor
