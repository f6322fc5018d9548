// Zipf-distributed item ids for serving traffic.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Draws the item of rank r with probability proportional to 1 / (r + 1)^s,
/// where `item_of_rank[0]` is the hottest item. Every draw is a pure function
/// of the rng state.
class ZipfSampler {
 public:
  ZipfSampler(std::vector<std::uint32_t> item_of_rank, double s)
      : cdf_(item_of_rank.size()), item_of_rank_(std::move(item_of_rank)) {
    double total = 0.0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r) + 1.0, s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::uint32_t operator()(splpg::util::Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                            cdf_.size() - 1);
    return item_of_rank_[rank];
  }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> item_of_rank_;
};

}  // namespace perfbench
