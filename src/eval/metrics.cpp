#include "eval/metrics.hpp"

#include <algorithm>

namespace splpg::eval {

double hits_at_k(std::span<const float> positive_scores, std::span<const float> negative_scores,
                 std::size_t k) {
  if (positive_scores.empty()) return 0.0;
  if (negative_scores.size() < k || k == 0) return 1.0;
  // K-th largest negative score.
  std::vector<float> negatives(negative_scores.begin(), negative_scores.end());
  std::nth_element(negatives.begin(), negatives.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   negatives.end(), std::greater<>());
  const float threshold = negatives[k - 1];
  std::size_t hits = 0;
  for (const float score : positive_scores) {
    if (score > threshold) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(positive_scores.size());
}

double auc(std::span<const float> positive_scores, std::span<const float> negative_scores) {
  if (positive_scores.empty() || negative_scores.empty()) return 0.5;
  // Rank-based computation: sort all scores, sum the ranks of positives.
  std::vector<std::pair<float, int>> scored;
  scored.reserve(positive_scores.size() + negative_scores.size());
  for (const float s : positive_scores) scored.emplace_back(s, 1);
  for (const float s : negative_scores) scored.emplace_back(s, 0);
  std::sort(scored.begin(), scored.end());

  // Average ranks across ties.
  double positive_rank_sum = 0.0;
  std::size_t i = 0;
  while (i < scored.size()) {
    std::size_t j = i;
    while (j < scored.size() && scored[j].first == scored[i].first) ++j;
    const double average_rank = (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (std::size_t t = i; t < j; ++t) {
      if (scored[t].second == 1) positive_rank_sum += average_rank;
    }
    i = j;
  }
  const double np = static_cast<double>(positive_scores.size());
  const double nn = static_cast<double>(negative_scores.size());
  return (positive_rank_sum - np * (np + 1.0) / 2.0) / (np * nn);
}

}  // namespace splpg::eval
