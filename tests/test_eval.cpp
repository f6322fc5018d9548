// Tests for eval metrics: Hits@K, AUC, threshold accuracy.
#include <gtest/gtest.h>

#include "eval/metrics.hpp"

namespace splpg::eval {
namespace {

TEST(HitsAtK, HandComputed) {
  // Negatives sorted desc: 9, 7, 5, 3. K = 2 -> threshold 7.
  const std::vector<float> negatives{5, 9, 3, 7};
  const std::vector<float> positives{10, 8, 7, 6};  // 10 and 8 beat 7 strictly
  EXPECT_DOUBLE_EQ(hits_at_k(positives, negatives, 2), 0.5);
}

TEST(HitsAtK, K1IsStrictestK4IsLoosest) {
  const std::vector<float> negatives{1, 2, 3, 4};
  const std::vector<float> positives{3.5F};
  EXPECT_DOUBLE_EQ(hits_at_k(positives, negatives, 1), 0.0);  // must beat 4
  EXPECT_DOUBLE_EQ(hits_at_k(positives, negatives, 2), 1.0);  // must beat 3
}

TEST(HitsAtK, FewerNegativesThanKIsPerfect) {
  const std::vector<float> negatives{1, 2};
  const std::vector<float> positives{-5};
  EXPECT_DOUBLE_EQ(hits_at_k(positives, negatives, 100), 1.0);
}

TEST(HitsAtK, TieWithThresholdDoesNotCount) {
  const std::vector<float> negatives{5};
  const std::vector<float> positives{5};
  EXPECT_DOUBLE_EQ(hits_at_k(positives, negatives, 1), 0.0);
}

TEST(HitsAtK, EmptyPositivesIsZero) {
  const std::vector<float> negatives{1};
  EXPECT_DOUBLE_EQ(hits_at_k({}, negatives, 1), 0.0);
}

TEST(Auc, PerfectSeparation) {
  const std::vector<float> positives{3, 4, 5};
  const std::vector<float> negatives{0, 1, 2};
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 1.0);
}

TEST(Auc, PerfectInversion) {
  const std::vector<float> positives{0, 1};
  const std::vector<float> negatives{2, 3};
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 0.0);
}

TEST(Auc, ChanceForIdenticalScores) {
  const std::vector<float> positives{1, 1, 1};
  const std::vector<float> negatives{1, 1};
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 0.5);
}

TEST(Auc, HandComputedMixedCase) {
  // pos = {2, 0}, neg = {1}. Pairs: (2 > 1) = 1, (0 < 1) = 0 -> AUC 0.5.
  const std::vector<float> positives{2, 0};
  const std::vector<float> negatives{1};
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 0.5);
}

TEST(Auc, TiesCountHalf) {
  const std::vector<float> positives{1, 2};
  const std::vector<float> negatives{1};
  // Pairs: (1 vs 1) = 0.5, (2 vs 1) = 1 -> 0.75.
  EXPECT_DOUBLE_EQ(auc(positives, negatives), 0.75);
}

TEST(Auc, EmptySideIsChance) {
  EXPECT_DOUBLE_EQ(auc({}, std::vector<float>{1.0F}), 0.5);
  EXPECT_DOUBLE_EQ(auc(std::vector<float>{1.0F}, {}), 0.5);
}

}  // namespace
}  // namespace splpg::eval
