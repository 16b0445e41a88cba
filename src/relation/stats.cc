#include "relation/stats.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/strings.h"

namespace limbo::relation {

double EntropyFromCounts(std::vector<uint64_t> counts, uint64_t total) {
  if (total == 0) return 0.0;
  // Sum c*log2(c) in ascending order of c. Small counts (the bulk of a
  // near-key projection) are tallied instead of sorted: adding each
  // one's term tally[c] times is the same sequence of additions a full
  // sort would produce, so the sum is bit-identical to it.
  constexpr uint64_t kSmall = 256;
  std::array<uint64_t, kSmall> tally{};
  size_t large = 0;
  for (uint64_t c : counts) {
    if (c < kSmall) {
      ++tally[c];
    } else {
      counts[large++] = c;
    }
  }
  counts.resize(large);
  std::sort(counts.begin(), counts.end());
  double sum_clog = 0.0;
  for (uint64_t c = 1; c < kSmall; ++c) {
    const double term =
        static_cast<double>(c) * std::log2(static_cast<double>(c));
    for (uint64_t i = 0; i < tally[c]; ++i) sum_clog += term;
  }
  for (uint64_t c : counts) {
    sum_clog += static_cast<double>(c) * std::log2(static_cast<double>(c));
  }
  const double n = static_cast<double>(total);
  double h = std::log2(n) - sum_clog / n;
  // Clamp the tiny negative residue a one-group distribution can leave
  // behind (log2(n) - n*log2(n)/n evaluated in floating point).
  return h < 0.0 ? 0.0 : h;
}

RelationProfile Profile(const Relation& rel) {
  RelationProfile profile;
  profile.tuples = rel.NumTuples();
  profile.attributes = rel.NumAttributes();
  profile.distinct_values = rel.NumValues();

  const size_t m = rel.NumAttributes();
  const double n = static_cast<double>(rel.NumTuples());
  profile.columns.resize(m);
  for (size_t a = 0; a < m; ++a) {
    auto& col = profile.columns[a];
    col.attribute = static_cast<AttributeId>(a);
    col.name = rel.schema().Name(static_cast<AttributeId>(a));
  }
  // One pass over the dictionary: every value belongs to one attribute.
  std::vector<std::vector<uint64_t>> supports(m);
  for (ValueId v = 0; v < rel.NumValues(); ++v) {
    const AttributeId a = rel.dictionary().Attribute(v);
    auto& col = profile.columns[a];
    const size_t support = rel.dictionary().Support(v);
    supports[a].push_back(support);
    ++col.distinct_values;
    if (rel.dictionary().Text(v).empty()) col.null_count = support;
    if (support > col.top_count) {
      col.top_count = support;
      col.top_value = rel.dictionary().Text(v).empty()
                          ? std::string("⊥")
                          : rel.dictionary().Text(v);
    }
  }
  for (size_t a = 0; a < m; ++a) {
    auto& col = profile.columns[a];
    col.entropy = EntropyFromCounts(std::move(supports[a]), rel.NumTuples());
    col.null_fraction = n > 0 ? col.null_count / n : 0.0;
    col.is_key = rel.NumTuples() > 0 &&
                 col.distinct_values == rel.NumTuples();
    col.is_constant = col.distinct_values == 1 && rel.NumTuples() > 0;
    col.uniformity =
        col.distinct_values > 1
            ? col.entropy / std::log2(static_cast<double>(col.distinct_values))
            : 1.0;
  }
  return profile;
}

std::string RelationProfile::ToString() const {
  std::string out = util::StrFormat(
      "%zu tuples x %zu attributes, %zu distinct values\n", tuples,
      attributes, distinct_values);
  out += util::StrFormat("%-16s %-9s %-7s %-8s %-8s %-5s %s\n", "attribute",
                         "distinct", "null%", "entropy", "uniform", "key",
                         "top value");
  for (const auto& col : columns) {
    out += util::StrFormat(
        "%-16s %-9zu %-7.1f %-8.3f %-8.3f %-5s %s (%zu)\n", col.name.c_str(),
        col.distinct_values, 100.0 * col.null_fraction, col.entropy,
        col.uniformity,
        col.is_key ? "yes" : (col.is_constant ? "const" : ""),
        col.top_value.c_str(), col.top_count);
  }
  return out;
}

}  // namespace limbo::relation
