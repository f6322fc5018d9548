#include "tensor/init.hpp"

#include <cmath>

namespace splpg::tensor {

Matrix xavier_uniform(std::size_t fan_in, std::size_t fan_out, util::Rng& rng) {
  const double bound = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  Matrix out(fan_in, fan_out);
  for (float& x : out.data()) x = static_cast<float>(rng.uniform(-bound, bound));
  return out;
}

Matrix gaussian(std::size_t rows, std::size_t cols, double mean, double stddev, util::Rng& rng) {
  Matrix out(rows, cols);
  for (float& x : out.data()) x = static_cast<float>(rng.normal(mean, stddev));
  return out;
}

}  // namespace splpg::tensor
