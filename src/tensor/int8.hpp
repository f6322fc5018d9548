// Int8 per-tensor symmetric quantization: the one quantizer behind the
// int8 gradient-compression hook (dist/comm_hook) and the serving layer's
// quantized weights and embeddings (cf. ATen/native/quantized/cpu).
//
// scale = amax / 127, q = clamp(lround(x * (127 / amax)), -127, 127), and
// the round trip is x' = q * scale. The inverse is 127 / amax, not
// 1 / scale: the two round differently for some x. The documented
// round-trip bound is |x' - x| <= scale / 2 = amax / 254 per entry (plus
// float slop ~ amax * 1e-5). Values already on the grid {k * scale,
// |k| <= 127} round-trip bit-exactly, which is what the integer-grid
// exactness tests pin.
//
// Scoring kernels accumulate int8 x int8 products in int32 (exact: |q| <=
// 127 so a dot of up to 2^16 terms fits with room to spare) and apply the
// two scales once at the end — one float rounding per pair instead of one
// per element, and 4x less memory traffic than an f32 dot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace splpg::tensor {

/// One symmetric-quantized tensor: int8 payload + a single f32 scale.
struct QuantizedTensor {
  std::size_t rows = 0;
  std::size_t cols = 0;
  float scale = 0.0F;  ///< amax / 127; 0 for an all-zero tensor
  std::vector<std::int8_t> values;

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  /// Serialized wire/cache footprint: 1 byte per value + the 4-byte scale
  /// (the int8 CommHook payload formula).
  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return values.size() + sizeof(float);
  }
};

/// Quantizes a span with its own amax and returns the scale amax / 127 (0,
/// with all-zero codes, when every entry is 0).
float quantize_span(std::span<const float> in, std::span<std::int8_t> out) noexcept;

/// Dequantizes: out[i] = q[i] * scale.
void dequantize_span(std::span<const std::int8_t> in, float scale,
                     std::span<float> out) noexcept;

/// Per-tensor symmetric quantization of a matrix.
[[nodiscard]] QuantizedTensor quantize_symmetric(const Matrix& in);

/// Round trip back to f32. Error per entry <= scale / 2 = amax / 254.
[[nodiscard]] Matrix dequantize(const QuantizedTensor& in);

/// In-place round trip: replaces `m` with dequantize(quantize_symmetric(m)).
/// Returns the per-entry error bound amax / 254 (0 for an all-zero tensor).
float quantize_dequantize_inplace(Matrix& m);

/// Exact int32 dot of two int8 vectors (the scoring kernel's inner loop).
[[nodiscard]] std::int32_t dot_i8_i32(std::span<const std::int8_t> a,
                                      std::span<const std::int8_t> b) noexcept;

/// Int8 scoring kernel entry point: score(u, v) = (sum_i qu[i] * qv[i]) *
/// scale_u * scale_v — the dot-product edge predictor on quantized
/// embedding rows, with a single float rounding at the end.
[[nodiscard]] float score_dot_i8(std::span<const std::int8_t> qu, float scale_u,
                                 std::span<const std::int8_t> qv, float scale_v) noexcept;

}  // namespace splpg::tensor
