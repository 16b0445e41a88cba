#ifndef LIMBO_CORE_STRUCTURE_SUMMARY_H_
#define LIMBO_CORE_STRUCTURE_SUMMARY_H_

#include <string>
#include <vector>

#include "core/attribute_grouping.h"
#include "core/fd_rank.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "relation/stats.h"
#include "util/result.h"

namespace limbo::core {

/// One-call configuration for the full structure-discovery pipeline.
struct StructureSummaryOptions {
  /// Tuple-clustering accuracy for duplicate detection.
  double phi_t = 0.1;
  /// Value-clustering accuracy (0 = perfect co-occurrence only).
  double phi_v = 0.0;
  /// FD-RANK threshold.
  double psi = 0.5;
  /// Above this tuple count, FDs are mined with TANE instead of FDEP and
  /// Double Clustering is used for the value stage.
  size_t large_relation_threshold = 2000;
  /// φ_T for the Double-Clustering tuple summaries on large relations.
  double phi_t_double_clustering = 0.5;
};

/// What the paper's tools derive from one relation past its profile and
/// duplicate tuples: value groups / CV_D (Double Clustering on large
/// inputs), the attribute dendrogram and the FD-RANKed minimum cover.
struct DerivedStructure {
  ValueClusteringResult values;
  /// Present only when CV_D is non-empty.
  bool has_grouping = false;
  AttributeGroupingResult grouping;
  size_t num_fds = 0;
  std::vector<RankedFd> ranked_cover;
};

/// Everything the paper's tools derive from one relation — the compact
/// summary an analyst would browse (Sections 6-7 in one object).
struct StructureSummary : DerivedStructure {
  relation::RelationProfile profile;
  DuplicateTupleReport duplicates;

  /// Full analyst report as text.
  std::string ToString(const relation::Relation& rel) const;
};

/// Runs value clustering (with Double Clustering on large inputs),
/// attribute grouping, FD discovery (FDEP or TANE by size), minimum cover
/// and FD-RANK. `options.phi_t` is not read: it only drives the duplicate
/// pass, which this step leaves out. Opens no span of its own, so its
/// steps nest directly under the caller's.
util::Result<DerivedStructure> DeriveStructure(
    const relation::Relation& rel,
    const StructureSummaryOptions& options = StructureSummaryOptions());

/// Runs profiling and duplicate-tuple detection, then DeriveStructure.
util::Result<StructureSummary> SummarizeStructure(
    const relation::Relation& rel,
    const StructureSummaryOptions& options = StructureSummaryOptions());

}  // namespace limbo::core

#endif  // LIMBO_CORE_STRUCTURE_SUMMARY_H_
