#include "core/info.h"

#include <gtest/gtest.h>

#include <cmath>

namespace limbo::core {
namespace {

TEST(EntropyTest, KnownValues) {
  const double probs_uniform[] = {0.25, 0.25, 0.25, 0.25};
  EXPECT_NEAR(Entropy(probs_uniform), 2.0, 1e-12);
  const double probs_point[] = {1.0, 0.0};
  EXPECT_NEAR(Entropy(probs_point), 0.0, 1e-12);
  const double probs_half[] = {0.5, 0.5};
  EXPECT_NEAR(Entropy(probs_half), 1.0, 1e-12);
}

WeightedRows TwoByTwo() {
  // Two equiprobable objects with disjoint conditionals over {0,1}:
  // I(O;T) = 1 bit.
  WeightedRows rows;
  rows.weights = {0.5, 0.5};
  rows.rows = {SparseDistribution::UniformOver(std::vector<uint32_t>{0}),
               SparseDistribution::UniformOver(std::vector<uint32_t>{1})};
  return rows;
}

TEST(MarginalTest, AveragesRows) {
  const auto marginal = Marginal(TwoByTwo());
  EXPECT_DOUBLE_EQ(marginal.MassAt(0), 0.5);
  EXPECT_DOUBLE_EQ(marginal.MassAt(1), 0.5);
}

TEST(MutualInformationTest, DisjointRowsGiveEntropyOfWeights) {
  EXPECT_NEAR(MutualInformation(TwoByTwo()), 1.0, 1e-12);
}

TEST(MutualInformationTest, IdenticalRowsGiveZero) {
  WeightedRows rows;
  rows.weights = {0.5, 0.5};
  const auto cond = SparseDistribution::UniformOver(std::vector<uint32_t>{3, 7});
  rows.rows = {cond, cond};
  EXPECT_NEAR(MutualInformation(rows), 0.0, 1e-12);
}

TEST(MutualInformationTest, InformationIdentity) {
  // I(O;T) = H(T) - H(T|O) for a non-trivial joint.
  WeightedRows rows;
  rows.weights = {0.25, 0.75};
  rows.rows = {SparseDistribution::FromPairs({{0, 0.5}, {1, 0.5}}),
               SparseDistribution::FromPairs({{1, 0.25}, {2, 0.75}})};
  const double h_t = Marginal(rows).Entropy();
  const double h_t_given_o = ConditionalEntropy(rows);
  EXPECT_NEAR(MutualInformation(rows), h_t - h_t_given_o, 1e-12);
}

TEST(MutualInformationTest, NonNegativeOnRandomRows) {
  WeightedRows rows;
  for (uint32_t i = 0; i < 10; ++i) {
    rows.weights.push_back(0.1);
    rows.rows.push_back(SparseDistribution::FromPairs(
        {{i % 4, 1.0 + i}, {4 + (i + 1) % 4, 2.0}, {8 + (i * 3) % 7, 0.5}}));
  }
  EXPECT_GE(MutualInformation(rows), 0.0);
}

TEST(ConditionalEntropyTest, WeightedAverageOfRowEntropies) {
  WeightedRows rows;
  rows.weights = {0.5, 0.5};
  rows.rows = {
      SparseDistribution::UniformOver(std::vector<uint32_t>{0, 1}),   // H=1
      SparseDistribution::UniformOver(std::vector<uint32_t>{2})};     // H=0
  EXPECT_NEAR(ConditionalEntropy(rows), 0.5, 1e-12);
}

/// Regression guard: the dense marginal accumulator used to read
/// entries().back().id as the max id, trusting sortedness; an unsorted
/// row (e.g. from a hand-built or deserialized source) could then index
/// out of bounds. The accumulator now scans every entry for the max, so
/// the largest id may live anywhere — first row, middle entry — and
/// construction order must not matter.
TEST(MarginalTest, DenseAccumulatorScansForMaxId) {
  WeightedRows rows;
  rows.weights = {0.25, 0.25, 0.5};
  // Largest id (900) in the FIRST row; entries handed over unsorted.
  rows.rows = {
      SparseDistribution::FromPairs({{900, 1.0}, {2, 1.0}}),
      SparseDistribution::FromPairs({{7, 2.0}, {3, 2.0}}),
      SparseDistribution::FromPairs({{3, 1.0}})};
  const auto marginal = Marginal(rows);
  EXPECT_NEAR(marginal.MassAt(900), 0.125, 1e-12);
  EXPECT_NEAR(marginal.MassAt(2), 0.125, 1e-12);
  EXPECT_NEAR(marginal.MassAt(7), 0.125, 1e-12);
  EXPECT_NEAR(marginal.MassAt(3), 0.625, 1e-12);
  EXPECT_NEAR(marginal.TotalMass(), 1.0, 1e-12);
  // The same accumulator backs MutualInformation; it must agree with the
  // identity I = H(T) - H(T|O) on this shape too.
  EXPECT_NEAR(MutualInformation(rows),
              marginal.Entropy() - ConditionalEntropy(rows), 1e-12);
}

TEST(MarginalTest, SkipsZeroWeightRows) {
  WeightedRows rows;
  rows.weights = {1.0, 0.0};
  rows.rows = {SparseDistribution::UniformOver(std::vector<uint32_t>{0}),
               SparseDistribution::UniformOver(std::vector<uint32_t>{9})};
  const auto marginal = Marginal(rows);
  EXPECT_DOUBLE_EQ(marginal.MassAt(9), 0.0);
  EXPECT_DOUBLE_EQ(marginal.MassAt(0), 1.0);
}

}  // namespace
}  // namespace limbo::core
