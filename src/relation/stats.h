#ifndef LIMBO_RELATION_STATS_H_
#define LIMBO_RELATION_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relation/relation.h"

namespace limbo::relation {

/// Shannon entropy (base 2) of a multiset given its exact occurrence
/// counts and total: H = log2(n) - (1/n) * sum c*log2(c). The terms are
/// summed in ascending order of c, so the result is bit-identical no
/// matter how the counts were produced or ordered — the determinism
/// anchor for every lane-parallel entropy in the library. This is the
/// library's one count-to-entropy function. Zero counts are ignored; no
/// counts, or a zero total, give 0.
double EntropyFromCounts(std::vector<uint64_t> counts, uint64_t total);

/// Per-attribute profile, in the spirit of the data-quality browsers
/// (Bellman, Potter's Wheel) the paper positions itself against.
struct AttributeProfile {
  AttributeId attribute = 0;
  std::string name;
  size_t distinct_values = 0;
  size_t null_count = 0;
  double null_fraction = 0.0;
  /// Shannon entropy (bits) of the attribute's value distribution.
  double entropy = 0.0;
  /// entropy / log2(distinct): 1.0 = uniform, ~0 = one dominant value.
  double uniformity = 0.0;
  /// True iff every tuple carries a distinct value (column is a key).
  bool is_key = false;
  /// True iff a single value covers every tuple.
  bool is_constant = false;
  /// The most frequent value's text (NULL rendered as "⊥") and count.
  std::string top_value;
  size_t top_count = 0;
};

/// Whole-relation profile.
struct RelationProfile {
  size_t tuples = 0;
  size_t attributes = 0;
  size_t distinct_values = 0;
  std::vector<AttributeProfile> columns;

  /// Aligned text rendering for terminals.
  std::string ToString() const;
};

/// Profiles every attribute of `rel` in one pass over the dictionary.
RelationProfile Profile(const Relation& rel);

}  // namespace limbo::relation

#endif  // LIMBO_RELATION_STATS_H_
