// Link-prediction evaluation metrics.
//
// Hits@K is the paper's headline metric (§V-A, following OGB): the fraction
// of positive test edges whose score ranks above the K-th highest negative
// score. AUC is also provided for cross-checks.
#pragma once

#include <span>
#include <vector>

namespace splpg::eval {

/// Fraction of positives scored strictly above the K-th largest negative
/// score (1.0 if there are fewer than K negatives). Range [0, 1].
[[nodiscard]] double hits_at_k(std::span<const float> positive_scores,
                               std::span<const float> negative_scores, std::size_t k);

/// Area under the ROC curve via the Mann-Whitney U statistic (ties count
/// half). Range [0, 1]; 0.5 = chance.
[[nodiscard]] double auc(std::span<const float> positive_scores,
                         std::span<const float> negative_scores);

}  // namespace splpg::eval
