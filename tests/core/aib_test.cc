#include "core/aib.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "util/random.h"

namespace limbo::core {
namespace {

Dcf MakeDcf(double p, std::vector<uint32_t> support) {
  Dcf d;
  d.p = p;
  d.cond = SparseDistribution::UniformOver(support);
  return d;
}

/// Four objects: {0,1} are identical, {2,3} are identical, the two groups
/// disjoint. AIB must merge within groups first (loss 0) and across
/// groups last.
std::vector<Dcf> TwoNaturalClusters() {
  return {MakeDcf(0.25, {0, 1}), MakeDcf(0.25, {0, 1}),
          MakeDcf(0.25, {5, 6}), MakeDcf(0.25, {5, 6})};
}

TEST(AibTest, MergesIdenticalObjectsFirst) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  const auto& merges = result->merges();
  ASSERT_EQ(merges.size(), 3u);
  EXPECT_NEAR(merges[0].delta_i, 0.0, 1e-9);
  EXPECT_NEAR(merges[1].delta_i, 0.0, 1e-9);
  EXPECT_GT(merges[2].delta_i, 0.5);
}

TEST(AibTest, AssignmentsAtKRecoverNaturalClusters) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  auto labels = result->AssignmentsAtK(2);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], (*labels)[1]);
  EXPECT_EQ((*labels)[2], (*labels)[3]);
  EXPECT_NE((*labels)[0], (*labels)[2]);
}

TEST(AibTest, AssignmentsAtExtremes) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  auto all_separate = result->AssignmentsAtK(4);
  ASSERT_TRUE(all_separate.ok());
  EXPECT_EQ(*all_separate, (std::vector<uint32_t>{0, 1, 2, 3}));
  auto all_together = result->AssignmentsAtK(1);
  ASSERT_TRUE(all_together.ok());
  EXPECT_EQ(*all_together, (std::vector<uint32_t>{0, 0, 0, 0}));
  EXPECT_FALSE(result->AssignmentsAtK(5).ok());
  EXPECT_FALSE(result->AssignmentsAtK(0).ok());
}

TEST(AibTest, CumulativeLossIsMonotone) {
  std::vector<Dcf> inputs;
  for (uint32_t i = 0; i < 8; ++i) {
    inputs.push_back(MakeDcf(1.0 / 8, {i, i + 1, i + 2}));
  }
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  double prev = 0.0;
  for (const Merge& m : result->merges()) {
    EXPECT_GE(m.cumulative_loss, prev - 1e-12);
    EXPECT_GE(m.delta_i, -1e-12);
    prev = m.cumulative_loss;
  }
  auto loss_k1 = result->LossAtK(1);
  ASSERT_TRUE(loss_k1.ok());
  EXPECT_NEAR(*loss_k1, prev, 1e-12);
  auto loss_kq = result->LossAtK(8);
  ASSERT_TRUE(loss_kq.ok());
  EXPECT_DOUBLE_EQ(*loss_kq, 0.0);
}

TEST(AibTest, TotalLossEqualsMutualInformationForDistinctObjects) {
  // Clustering everything into one cluster loses exactly I(O;T).
  std::vector<Dcf> inputs = {MakeDcf(0.5, {0}), MakeDcf(0.5, {1})};
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  // I(O;T) = 1 bit for this configuration.
  EXPECT_NEAR(result->merges().back().cumulative_loss, 1.0, 1e-12);
}

TEST(AibTest, MinKStopsEarly) {
  AibOptions options;
  options.min_k = 3;
  auto result = AgglomerativeIb(TwoNaturalClusters(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->merges().size(), 1u);
  EXPECT_EQ(result->FinalK(), 3u);
  EXPECT_FALSE(result->AssignmentsAtK(2).ok());  // below final K
}

TEST(AibTest, InvalidInputs) {
  EXPECT_FALSE(AgglomerativeIb({}).ok());
  AibOptions options;
  options.min_k = 5;
  EXPECT_FALSE(AgglomerativeIb(TwoNaturalClusters(), options).ok());
}

TEST(AibTest, SingleObject) {
  auto result = AgglomerativeIb({MakeDcf(1.0, {0})});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->merges().empty());
  EXPECT_EQ(result->FinalK(), 1u);
}

TEST(AibTest, DeterministicAcrossRuns) {
  std::vector<Dcf> inputs;
  for (uint32_t i = 0; i < 12; ++i) {
    inputs.push_back(MakeDcf(1.0 / 12, {i % 5, (i * 2) % 5 + 5}));
  }
  auto a = AgglomerativeIb(inputs);
  auto b = AgglomerativeIb(inputs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->merges().size(), b->merges().size());
  for (size_t i = 0; i < a->merges().size(); ++i) {
    EXPECT_EQ(a->merges()[i].left, b->merges()[i].left);
    EXPECT_EQ(a->merges()[i].right, b->merges()[i].right);
  }
}

/// Runs parametrized over the worker-lane count: every result must be
/// bit-identical to the serial path.
class AibThreadsTest : public ::testing::TestWithParam<size_t> {};

/// Regression: recompute_nn used to tie-break equal distances on *slot
/// index* while the global selection tie-broke on *cluster id*. With all
/// distances equal, slots recycled by merges then steered the merge order
/// away from the documented scipy-style id order (e.g. the second merge
/// became {6, 2} instead of {2, 3}).
TEST_P(AibThreadsTest, EqualDistanceMergeOrderFollowsClusterIds) {
  std::vector<Dcf> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back(MakeDcf(1.0 / 6, {0, 1}));
  AibOptions options;
  options.threads = GetParam();
  auto result = AgglomerativeIb(inputs, options);
  ASSERT_TRUE(result.ok());
  const auto& merges = result->merges();
  ASSERT_EQ(merges.size(), 5u);
  const uint32_t expected[][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}};
  for (size_t i = 0; i < merges.size(); ++i) {
    EXPECT_EQ(merges[i].left, expected[i][0]) << "merge " << i;
    EXPECT_EQ(merges[i].right, expected[i][1]) << "merge " << i;
    EXPECT_NEAR(merges[i].delta_i, 0.0, 1e-12);
  }
}

TEST_P(AibThreadsTest, BitIdenticalToSerial) {
  std::vector<Dcf> inputs;
  for (uint32_t i = 0; i < 40; ++i) {
    inputs.push_back(MakeDcf((1.0 + i % 3) / 80.0,
                             {i % 7, 7 + (i * 3) % 11, 18 + (i * 5) % 13}));
  }
  AibOptions serial;
  serial.threads = 1;
  AibOptions parallel;
  parallel.threads = GetParam();
  auto a = AgglomerativeIb(inputs, serial);
  auto b = AgglomerativeIb(inputs, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->merges().size(), b->merges().size());
  for (size_t i = 0; i < a->merges().size(); ++i) {
    EXPECT_EQ(a->merges()[i].left, b->merges()[i].left) << "merge " << i;
    EXPECT_EQ(a->merges()[i].right, b->merges()[i].right) << "merge " << i;
    // EXPECT_EQ on doubles: the losses must match bit-for-bit, not
    // approximately — the parallel path computes the exact same FP ops.
    EXPECT_EQ(a->merges()[i].delta_i, b->merges()[i].delta_i);
    EXPECT_EQ(a->merges()[i].cumulative_loss, b->merges()[i].cumulative_loss);
    EXPECT_EQ(a->merges()[i].p_merged, b->merges()[i].p_merged);
  }
  EXPECT_EQ(b->stats().threads, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Threads, AibThreadsTest, ::testing::Values(1, 4));

/// How the naive reference evaluates each δ: one InformationLoss call per
/// pair, or one InformationLossBatch call per object row, so a single
/// kernel (and its log memo) is reused across the row's candidates.
enum class ReferenceLoss { kBatch, kPerPair };

/// Naive AIB: every step scans all live pairs for the minimum
/// (δ, min id, max id) — no slots, no nearest-neighbour cache. Each δ is
/// evaluated once, in the orientation AgglomerativeIb evaluates it: input
/// pairs as (lower id, higher id) from the initial matrix, and any pair
/// holding a merged cluster with that newer, higher-id cluster as the
/// object, as in the post-merge refresh.
std::vector<Merge> ReferenceAib(const std::vector<Dcf>& inputs,
                                ReferenceLoss loss) {
  const size_t q = inputs.size();
  std::vector<Dcf> clusters = inputs;
  clusters.reserve(2 * q);
  std::vector<uint32_t> live;
  for (uint32_t i = 0; i < q; ++i) live.push_back(i);
  // δ(object, each candidate), in candidate order.
  auto losses = [loss](const Dcf& object, const std::vector<Dcf>& cands) {
    std::vector<double> out(cands.size());
    if (loss == ReferenceLoss::kBatch) {
      InformationLossBatch(object, cands, out);
    } else {
      for (size_t c = 0; c < cands.size(); ++c) {
        out[c] = InformationLoss(object, cands[c]);
      }
    }
    return out;
  };
  // delta[hi][lo] for lo < hi: row hi is filled when cluster hi exists.
  std::vector<std::vector<double>> delta(2 * q);
  for (uint32_t hi = 1; hi < q; ++hi) delta[hi].resize(hi);
  for (uint32_t lo = 0; lo + 1 < q; ++lo) {
    const std::vector<Dcf> higher(clusters.begin() + lo + 1,
                                  clusters.begin() + q);
    const std::vector<double> row = losses(clusters[lo], higher);
    for (uint32_t hi = lo + 1; hi < q; ++hi) delta[hi][lo] = row[hi - lo - 1];
  }
  std::vector<Merge> merges;
  double cumulative = 0.0;
  while (live.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    uint32_t best_lo = 0;
    uint32_t best_hi = 0;
    bool found = false;
    for (size_t x = 0; x < live.size(); ++x) {
      for (size_t y = x + 1; y < live.size(); ++y) {
        const uint32_t lo = std::min(live[x], live[y]);
        const uint32_t hi = std::max(live[x], live[y]);
        const double d = delta[hi][lo];
        if (!found || std::tie(d, lo, hi) < std::tie(best, best_lo, best_hi)) {
          best = d;
          best_lo = lo;
          best_hi = hi;
          found = true;
        }
      }
    }
    const auto merged = static_cast<uint32_t>(clusters.size());
    clusters.push_back(MergeDcf(clusters[best_lo], clusters[best_hi]));
    cumulative += best;
    merges.push_back(Merge{best_lo, best_hi, merged, best, cumulative,
                           clusters.back().p});
    std::erase(live, best_lo);
    std::erase(live, best_hi);
    delta[merged].assign(merged, 0.0);
    std::vector<Dcf> others;
    for (uint32_t other : live) others.push_back(clusters[other]);
    const std::vector<double> row = losses(clusters[merged], others);
    for (size_t x = 0; x < live.size(); ++x) delta[merged][live[x]] = row[x];
    live.push_back(merged);
  }
  return merges;
}

/// Inputs whose equal-loss merges recycle slots out of cluster-id order:
/// three distributions, each repeated four times, interleaved, with a
/// fourth mass class so later merges tie across groups too.
std::vector<Dcf> InterleavedDuplicates() {
  std::vector<Dcf> inputs;
  const std::vector<std::vector<uint32_t>> supports = {
      {0, 1}, {2, 3}, {0, 1, 2, 3}};
  for (size_t i = 0; i < 12; ++i) {
    inputs.push_back(MakeDcf(1.0 / 16, supports[i % 3]));
  }
  for (size_t i = 0; i < 4; ++i) inputs.push_back(MakeDcf(1.0 / 16, {4, 5}));
  return inputs;
}

/// `n` (default 300) random sparse DCFs over a 200-id universe. At 300
/// the full dendrogram's merged rows sum to many times the input entries,
/// so the arena outgrows its initial reserve and regrows mid-run.
std::vector<Dcf> RandomSparseDcfs(size_t n = 300) {
  util::Random rng(20040613);
  std::vector<Dcf> inputs;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    std::vector<SparseDistribution::Entry> entries;
    const size_t support = 2 + rng.Uniform(6);
    for (size_t e = 0; e < support; ++e) {
      const auto id = static_cast<uint32_t>(rng.Uniform(200));
      if (std::none_of(entries.begin(), entries.end(),
                       [id](const auto& x) { return x.id == id; })) {
        entries.push_back({id, 0.1 + rng.NextDouble()});
      }
    }
    Dcf d;
    d.p = 1.0 + static_cast<double>(rng.Uniform(4));
    total += d.p;
    d.cond = SparseDistribution::FromPairs(std::move(entries));
    inputs.push_back(std::move(d));
  }
  for (Dcf& d : inputs) d.p /= total;
  return inputs;
}

/// Parameters: the reference's δ evaluation, and AIB's lane count.
using ReferenceParam = std::tuple<ReferenceLoss, size_t>;
class AibReferenceTest : public ::testing::TestWithParam<ReferenceParam> {
 protected:
  void ExpectMatchesReference(const std::vector<Dcf>& inputs) {
    AibOptions options;
    options.threads = std::get<1>(GetParam());
    auto result = AgglomerativeIb(inputs, options);
    ASSERT_TRUE(result.ok());
    const std::vector<Merge> expected =
        ReferenceAib(inputs, std::get<0>(GetParam()));
    const std::vector<Merge>& got = result->merges();
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].left, expected[i].left) << "merge " << i;
      EXPECT_EQ(got[i].right, expected[i].right) << "merge " << i;
      EXPECT_EQ(got[i].merged, expected[i].merged) << "merge " << i;
      // Bit-equal, not approximately equal.
      EXPECT_EQ(got[i].delta_i, expected[i].delta_i) << "merge " << i;
      EXPECT_EQ(got[i].cumulative_loss, expected[i].cumulative_loss)
          << "merge " << i;
      EXPECT_EQ(got[i].p_merged, expected[i].p_merged) << "merge " << i;
    }
  }
};

TEST_P(AibReferenceTest, InterleavedDuplicatesMatchNaiveAib) {
  ExpectMatchesReference(InterleavedDuplicates());
}

TEST_P(AibReferenceTest, RandomSparseDcfsMatchNaiveAib) {
  ExpectMatchesReference(RandomSparseDcfs());
}

// The matrix build writes the upper triangle and mirrors it into the
// lower one: a single input, a single pair, and sizes that split unevenly
// into the 16-row chunks the lanes take.
TEST_P(AibReferenceTest, MirrorEdgesMatchNaiveAib) {
  for (const size_t q : {size_t{1}, size_t{2}, size_t{63}, size_t{65},
                         size_t{197}}) {
    SCOPED_TRACE("q=" + std::to_string(q));
    ExpectMatchesReference(RandomSparseDcfs(q));
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndLanes, AibReferenceTest,
    ::testing::Combine(::testing::Values(ReferenceLoss::kBatch,
                                         ReferenceLoss::kPerPair),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<ReferenceParam>& info) {
      return std::string(std::get<0>(info.param) == ReferenceLoss::kBatch
                             ? "Batch"
                             : "PerPair") +
             "Threads" + std::to_string(std::get<1>(info.param));
    });

TEST(AibMatrixBoundTest, SizeIsQSquaredDoubles) {
  auto bytes = DistanceMatrixBytes(1000, UINT64_MAX);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, 1000u * 1000u * sizeof(double));
  // Exactly at the limit is allowed.
  bytes = DistanceMatrixBytes(100, 100 * 100 * sizeof(double));
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, 80000u);
}

TEST(AibMatrixBoundTest, RefusesPastTheMemoryLimit) {
  const auto bytes = DistanceMatrixBytes(101, 100 * 100 * sizeof(double));
  ASSERT_FALSE(bytes.ok());
  EXPECT_EQ(bytes.status().code(), util::StatusCode::kOutOfRange);
  EXPECT_NE(bytes.status().message().find("q=101"), std::string::npos)
      << bytes.status().message();
  EXPECT_NE(bytes.status().message().find("81608 bytes"), std::string::npos)
      << bytes.status().message();
}

TEST(AibMatrixBoundTest, RefusesASizeThatOverflows) {
  // q² overflows, and so does q² · 8 for a q whose q² does not.
  for (const size_t q : {size_t{1} << 32, size_t{1} << 31}) {
    const auto bytes = DistanceMatrixBytes(q, UINT64_MAX);
    ASSERT_FALSE(bytes.ok());
    EXPECT_EQ(bytes.status().code(), util::StatusCode::kOutOfRange);
    EXPECT_NE(bytes.status().message().find("q=" + std::to_string(q)),
              std::string::npos)
        << bytes.status().message();
  }
}

TEST(AibStatsTest, CountsDistanceEvaluations) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  // Initial matrix: 4*3/2 = 6. Refreshes: 2 + 1 + 0 after each merge.
  EXPECT_EQ(result->stats().distance_evals, 9u);
  EXPECT_GE(result->stats().threads, 1u);
  EXPECT_GE(result->stats().seconds, 0.0);
}

TEST(ClusterDcfsAtKTest, MassConserved) {
  const auto inputs = TwoNaturalClusters();
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  auto clusters = ClusterDcfsAtK(inputs, *result, 2);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters->size(), 2u);
  double total = 0.0;
  for (const Dcf& c : *clusters) total += c.p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR((*clusters)[0].p, 0.5, 1e-12);
}

TEST(ClusterEntropyPerStepTest, EqualMassClusters) {
  const auto inputs = TwoNaturalClusters();
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  const auto entropy = result->ClusterEntropyPerStep(inputs);
  ASSERT_EQ(entropy.size(), 4u);  // k = 4, 3, 2, 1
  EXPECT_NEAR(entropy[0], 2.0, 1e-12);  // 4 × 1/4
  EXPECT_NEAR(entropy[2], 1.0, 1e-12);  // 2 × 1/2
  EXPECT_NEAR(entropy[3], 0.0, 1e-12);  // single cluster
}

}  // namespace
}  // namespace limbo::core
