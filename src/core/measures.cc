#include "core/measures.h"

#include <cmath>
#include <unordered_map>
#include <vector>

#include "obs/counters.h"
#include "obs/trace.h"
#include "relation/ops.h"
#include "relation/stats.h"

namespace limbo::core {

namespace {

/// Multiplicities of the distinct projected rows.
std::vector<uint64_t> ProjectedCounts(
    const relation::Relation& rel,
    const std::vector<relation::AttributeId>& attributes) {
  // Hash rows to buckets; verify equality against a representative.
  struct Group {
    relation::TupleId representative;
    uint64_t count;
  };
  std::unordered_map<uint64_t, std::vector<Group>> buckets;
  auto hash_row = [&](relation::TupleId t) {
    uint64_t h = 1469598103934665603ULL;
    for (relation::AttributeId a : attributes) {
      h ^= rel.At(t, a);
      h *= 1099511628211ULL;
    }
    return h;
  };
  auto equal_rows = [&](relation::TupleId x, relation::TupleId y) {
    for (relation::AttributeId a : attributes) {
      if (rel.At(x, a) != rel.At(y, a)) return false;
    }
    return true;
  };
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    auto& bucket = buckets[hash_row(t)];
    bool placed = false;
    for (Group& g : bucket) {
      if (equal_rows(g.representative, t)) {
        ++g.count;
        placed = true;
        break;
      }
    }
    if (!placed) bucket.push_back({t, 1});
  }
  std::vector<uint64_t> counts;
  for (const auto& [h, groups] : buckets) {
    for (const Group& g : groups) counts.push_back(g.count);
  }
  return counts;
}

}  // namespace

double Rad(const relation::Relation& rel,
           const std::vector<relation::AttributeId>& attributes) {
  const size_t n = rel.NumTuples();
  if (n <= 1) return 1.0;
  LIMBO_OBS_SPAN(rad_span, "rad");
  LIMBO_OBS_COUNT("measures.rad_evals", 1);
  const double h =
      relation::EntropyFromCounts(ProjectedCounts(rel, attributes), n);
  return 1.0 - h / std::log2(static_cast<double>(n));
}

double Rtr(const relation::Relation& rel,
           const std::vector<relation::AttributeId>& attributes) {
  const size_t n = rel.NumTuples();
  if (n == 0) return 0.0;
  LIMBO_OBS_SPAN(rtr_span, "rtr");
  LIMBO_OBS_COUNT("measures.rtr_evals", 1);
  const size_t distinct =
      relation::CountDistinctProjected(rel, attributes);
  return 1.0 - static_cast<double>(distinct) / static_cast<double>(n);
}

}  // namespace limbo::core
