// Weight initialization schemes (deterministic given the Rng stream).
#pragma once

#include "tensor/matrix.hpp"
#include "util/rng.hpp"

namespace splpg::tensor {

/// Glorot/Xavier uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out)).
[[nodiscard]] Matrix xavier_uniform(std::size_t fan_in, std::size_t fan_out, util::Rng& rng);

/// All zeros (biases).
[[nodiscard]] inline Matrix zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols, 0.0F);
}

/// I.i.d. N(mean, stddev) entries.
[[nodiscard]] Matrix gaussian(std::size_t rows, std::size_t cols, double mean, double stddev,
                              util::Rng& rng);

}  // namespace splpg::tensor
