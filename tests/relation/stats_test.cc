#include "relation/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "testing/make_relation.h"

namespace limbo::relation {
namespace {

using limbo::testing::MakeRelation;

TEST(EntropyFromCounts, KnownValues) {
  // Uniform over 4 -> 2 bits; a point mass -> 0; empty -> 0.
  EXPECT_DOUBLE_EQ(EntropyFromCounts({1, 1, 1, 1}, 4), 2.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({5}, 5), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}, 0), 0.0);
  // {2,1,1} over 4: log2(4) - (2*1)/4 = 1.5.
  EXPECT_DOUBLE_EQ(EntropyFromCounts({2, 1, 1}, 4), 1.5);
}

TEST(EntropyFromCounts, OrderIndependent) {
  const std::vector<uint64_t> counts = {7, 1, 3, 9, 2, 2, 5};
  std::vector<uint64_t> reversed(counts.rbegin(), counts.rend());
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  EXPECT_EQ(EntropyFromCounts(counts, total),
            EntropyFromCounts(reversed, total));
}

TEST(EntropyFromCounts, MatchesNormalizedEntropy) {
  // {3,1,0,4} over 8: -sum p log2 p with the zero count contributing 0.
  double h = 0.0;
  for (double p : {3.0 / 8, 1.0 / 8, 4.0 / 8}) h -= p * std::log2(p);
  EXPECT_NEAR(EntropyFromCounts({3, 1, 0, 4}, 8), h, 1e-12);
}

TEST(EntropyFromCounts, EmptyAndZero) {
  EXPECT_DOUBLE_EQ(EntropyFromCounts({}, 0), 0.0);
  EXPECT_DOUBLE_EQ(EntropyFromCounts({0, 0}, 0), 0.0);
}

TEST(ProfileTest, BasicShape) {
  const auto rel = MakeRelation({"A", "B"}, {{"x", "1"}, {"y", "2"}});
  const RelationProfile profile = Profile(rel);
  EXPECT_EQ(profile.tuples, 2u);
  EXPECT_EQ(profile.attributes, 2u);
  EXPECT_EQ(profile.distinct_values, 4u);
  ASSERT_EQ(profile.columns.size(), 2u);
  EXPECT_EQ(profile.columns[0].name, "A");
}

TEST(ProfileTest, KeyDetection) {
  const auto rel =
      MakeRelation({"K", "X"}, {{"1", "a"}, {"2", "a"}, {"3", "b"}});
  const RelationProfile profile = Profile(rel);
  EXPECT_TRUE(profile.columns[0].is_key);
  EXPECT_FALSE(profile.columns[1].is_key);
}

TEST(ProfileTest, ConstantDetection) {
  const auto rel = MakeRelation({"C", "X"}, {{"c", "a"}, {"c", "b"}});
  const RelationProfile profile = Profile(rel);
  EXPECT_TRUE(profile.columns[0].is_constant);
  EXPECT_FALSE(profile.columns[1].is_constant);
  EXPECT_DOUBLE_EQ(profile.columns[0].entropy, 0.0);
}

TEST(ProfileTest, NullAccounting) {
  const auto rel =
      MakeRelation({"A"}, {{""}, {""}, {"x"}, {""}});
  const RelationProfile profile = Profile(rel);
  EXPECT_EQ(profile.columns[0].null_count, 3u);
  EXPECT_DOUBLE_EQ(profile.columns[0].null_fraction, 0.75);
  EXPECT_EQ(profile.columns[0].top_value, "⊥");
  EXPECT_EQ(profile.columns[0].top_count, 3u);
}

TEST(ProfileTest, EntropyAndUniformity) {
  const auto rel =
      MakeRelation({"U", "S"}, {{"a", "x"}, {"b", "x"}, {"c", "x"},
                                {"d", "y"}});
  const RelationProfile profile = Profile(rel);
  // U uniform over 4 values: entropy = 2 bits, uniformity = 1.
  EXPECT_NEAR(profile.columns[0].entropy, 2.0, 1e-12);
  EXPECT_NEAR(profile.columns[0].uniformity, 1.0, 1e-12);
  // S: 3/4 vs 1/4 -> entropy < 1 bit.
  const double h = -(0.75 * std::log2(0.75) + 0.25 * std::log2(0.25));
  EXPECT_NEAR(profile.columns[1].entropy, h, 1e-12);
  EXPECT_NEAR(profile.columns[1].uniformity, h, 1e-12);  // log2(2) = 1
}

TEST(ProfileTest, TopValue) {
  const auto rel =
      MakeRelation({"A"}, {{"x"}, {"y"}, {"x"}, {"x"}, {"z"}});
  const RelationProfile profile = Profile(rel);
  EXPECT_EQ(profile.columns[0].top_value, "x");
  EXPECT_EQ(profile.columns[0].top_count, 3u);
}

TEST(ProfileTest, ToStringContainsColumns) {
  const auto rel = MakeRelation({"Alpha", "Beta"}, {{"1", "2"}});
  const std::string text = Profile(rel).ToString();
  EXPECT_NE(text.find("Alpha"), std::string::npos);
  EXPECT_NE(text.find("Beta"), std::string::npos);
}

}  // namespace
}  // namespace limbo::relation
