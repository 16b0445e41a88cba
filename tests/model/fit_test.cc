// The fit derives its structure with core::DeriveStructure and skips the
// profile and duplicate pass that core::SummarizeStructure adds on top.
// These tests pin that the split changed no derived byte: on a DBLP input
// above the TANE / Double-Clustering threshold, the bundle's value
// groups, CV_D, attribute grouping and ranked FDs equal the summary's,
// and the summary still reports its duplicate groups.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/structure_summary.h"
#include "datagen/dblp.h"
#include "model/fit.h"

namespace limbo::model {
namespace {

void ExpectBitEqual(double a, double b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << "doubles differ: " << a << " vs " << b;
}

relation::Relation Dblp3000() {
  datagen::DblpOptions options;
  options.target_tuples = 3000;
  return datagen::GenerateDblp(options);
}

TEST(FitStructureTest, FitDerivesTheSummarysStructure) {
  const relation::Relation rel = Dblp3000();
  core::StructureSummaryOptions summary_options;
  ASSERT_GT(rel.NumTuples(), summary_options.large_relation_threshold);

  FitOptions fit_options;
  fit_options.threads = 1;
  auto bundle = FitModel(rel, fit_options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  summary_options.phi_t = fit_options.phi_t;
  summary_options.phi_v = fit_options.phi_v;
  summary_options.psi = fit_options.psi;
  auto summary = core::SummarizeStructure(rel, summary_options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  // Value groups and CV_D.
  ExpectBitEqual(bundle->value_mutual_information,
                 summary->values.mutual_information);
  ExpectBitEqual(bundle->value_threshold, summary->values.threshold);
  ASSERT_EQ(bundle->value_groups.size(), summary->values.groups.size());
  for (size_t g = 0; g < bundle->value_groups.size(); ++g) {
    const core::ValueGroup& got = bundle->value_groups[g];
    const core::ValueGroup& want = summary->values.groups[g];
    EXPECT_EQ(got.values, want.values) << "group " << g;
    EXPECT_EQ(got.is_duplicate, want.is_duplicate) << "group " << g;
    ExpectBitEqual(got.dcf.p, want.dcf.p);
  }
  ASSERT_FALSE(summary->values.duplicate_groups.empty());
  ASSERT_EQ(bundle->duplicate_groups.size(),
            summary->values.duplicate_groups.size());
  for (size_t i = 0; i < bundle->duplicate_groups.size(); ++i) {
    EXPECT_EQ(bundle->duplicate_groups[i], summary->values.duplicate_groups[i]);
  }

  // Attribute grouping.
  ASSERT_TRUE(summary->has_grouping);
  ASSERT_TRUE(bundle->has_grouping);
  EXPECT_EQ(bundle->grouping_attributes, summary->grouping.attributes);
  const std::vector<core::Merge>& merges = summary->grouping.aib.merges();
  ASSERT_EQ(bundle->grouping_merges.size(), merges.size());
  for (size_t i = 0; i < merges.size(); ++i) {
    EXPECT_EQ(bundle->grouping_merges[i].left, merges[i].left);
    EXPECT_EQ(bundle->grouping_merges[i].right, merges[i].right);
    ExpectBitEqual(bundle->grouping_merges[i].delta_i, merges[i].delta_i);
  }
  ASSERT_EQ(bundle->grouping_cluster_members.size(),
            summary->grouping.cluster_members.size());
  for (size_t i = 0; i < bundle->grouping_cluster_members.size(); ++i) {
    EXPECT_EQ(bundle->grouping_cluster_members[i],
              summary->grouping.cluster_members[i].bits());
  }
  ExpectBitEqual(bundle->max_merge_loss, summary->grouping.max_merge_loss);

  // Ranked FDs.
  EXPECT_EQ(bundle->num_fds, summary->num_fds);
  ASSERT_EQ(bundle->ranked_fds.size(), summary->ranked_cover.size());
  for (size_t i = 0; i < bundle->ranked_fds.size(); ++i) {
    EXPECT_EQ(bundle->ranked_fds[i].fd, summary->ranked_cover[i].fd);
    ExpectBitEqual(bundle->ranked_fds[i].rank, summary->ranked_cover[i].rank);
    EXPECT_EQ(bundle->ranked_fds[i].anchored,
              summary->ranked_cover[i].anchored);
  }
}

TEST(FitStructureTest, SummaryStillReportsDuplicateGroups) {
  const relation::Relation rel = Dblp3000();
  auto summary = core::SummarizeStructure(rel, {});
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_GT(summary->duplicates.num_leaves, 0u);
  EXPECT_GT(summary->duplicates.num_heavy_leaves, 0u);
  ASSERT_FALSE(summary->duplicates.groups.empty());
  for (const auto& group : summary->duplicates.groups) {
    EXPECT_GE(group.tuples.size(), 2u);
  }
  EXPECT_EQ(summary->profile.tuples, rel.NumTuples());
}

}  // namespace
}  // namespace limbo::model
