#include "fd/tane.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "fd/partition.h"
#include "obs/counters.h"

namespace limbo::fd {

namespace {

using PartitionMap = std::unordered_map<AttributeSet, StrippedPartition>;
using CPlusMap = std::unordered_map<AttributeSet, AttributeSet>;

/// Largest attribute of a non-empty set.
relation::AttributeId MaxAttribute(AttributeSet x) {
  return static_cast<relation::AttributeId>(63 - std::countl_zero(x.bits()));
}

}  // namespace

util::Result<std::vector<FunctionalDependency>> Tane::Mine(
    const relation::Relation& rel, const TaneOptions& options) {
  std::vector<FunctionalDependency> fds;
  const size_t n = rel.NumTuples();
  const size_t m = rel.NumAttributes();
  if (n < 1 || m == 0) return fds;

  const AttributeSet full = AttributeSet::Full(m);
  const size_t rank_of_empty = n - 1;  // π_∅ is one class of n tuples

  // Level 1 setup.
  std::vector<AttributeSet> level;
  PartitionMap partitions;
  for (size_t a = 0; a < m; ++a) {
    const auto attr = static_cast<relation::AttributeId>(a);
    const AttributeSet x = AttributeSet::Single(attr);
    level.push_back(x);
    partitions.emplace(x, StrippedPartition::ForAttribute(rel, attr));
  }
  CPlusMap cplus_prev;  // C+ of level ℓ-1
  cplus_prev.emplace(AttributeSet(), full);

  size_t ell = 1;
  uint64_t products = 0;
  while (!level.empty()) {
    // --- COMPUTE_DEPENDENCIES ---
    CPlusMap cplus;
    for (AttributeSet x : level) {
      AttributeSet c = full;
      for (relation::AttributeId a : x.ToList()) {
        auto it = cplus_prev.find(x.Without(a));
        // A missing subset means it was pruned with C+ = ∅.
        c = c.Intersect(it == cplus_prev.end() ? AttributeSet() : it->second);
      }
      cplus.emplace(x, c);
    }
    for (AttributeSet x : level) {
      AttributeSet& cx = cplus[x];
      const StrippedPartition& px = partitions.at(x);
      for (relation::AttributeId a : x.Intersect(cx).ToList()) {
        const AttributeSet lhs = x.Without(a);
        if (lhs.Count() < options.min_lhs) continue;
        const size_t lhs_rank = lhs.Empty()
                                    ? rank_of_empty
                                    : partitions.at(lhs).Rank();
        if (lhs_rank == px.Rank()) {
          fds.push_back({lhs, AttributeSet::Single(a)});
          cx = cx.Without(a);
          cx = cx.Minus(full.Minus(x));
        }
      }
    }

    // --- PRUNE ---
    std::vector<AttributeSet> pruned_level;
    for (AttributeSet x : level) {
      const AttributeSet cx = cplus[x];
      if (cx.Empty()) continue;
      if (partitions.at(x).IsSuperkey()) {
        for (relation::AttributeId a : cx.Minus(x).ToList()) {
          // X → A is minimal iff A survives in every C+(X ∪ {A} \ {B}).
          // When a probe set was never generated (its own subsets were
          // pruned as keys earlier), the C+ test is inconclusive; fall
          // back to verifying one-step reducibility directly against the
          // relation (monotonicity makes one step sufficient).
          bool minimal = true;
          bool have_all_probes = true;
          for (relation::AttributeId b : x.ToList()) {
            const AttributeSet probe = x.With(a).Without(b);
            auto it = cplus.find(probe);
            if (it == cplus.end()) {
              have_all_probes = false;
              break;
            }
            if (!it->second.Contains(a)) {
              minimal = false;
              break;
            }
          }
          if (!have_all_probes) {
            minimal = true;
            for (relation::AttributeId b : x.ToList()) {
              if (Holds(rel, {x.Without(b), AttributeSet::Single(a)})) {
                minimal = false;
                break;
              }
            }
          }
          if (minimal) fds.push_back({x, AttributeSet::Single(a)});
        }
        continue;  // superkeys never extend upward
      }
      pruned_level.push_back(x);
    }

    if (options.max_lhs != 0 && ell >= options.max_lhs) break;

    // --- GENERATE_NEXT_LEVEL (prefix join) ---
    std::unordered_set<AttributeSet> level_set(pruned_level.begin(),
                                               pruned_level.end());
    std::unordered_map<AttributeSet, std::vector<AttributeSet>> by_prefix;
    for (AttributeSet x : pruned_level) {
      by_prefix[x.Without(MaxAttribute(x))].push_back(x);
    }
    std::vector<AttributeSet> next_level;
    PartitionMap next_partitions;
    for (auto& [prefix, members] : by_prefix) {
      std::sort(members.begin(), members.end());
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet z = members[i].Union(members[j]);
          bool all_subsets_alive = true;
          for (relation::AttributeId a : z.ToList()) {
            if (!level_set.contains(z.Without(a))) {
              all_subsets_alive = false;
              break;
            }
          }
          if (!all_subsets_alive) continue;
          next_partitions.emplace(
              z, StrippedPartition::Product(partitions.at(members[i]),
                                            partitions.at(members[j]), n));
          next_level.push_back(z);
          ++products;
        }
      }
    }
    // Keep the previous level's partitions alive for next iteration's
    // validity tests (π_{X\{A}} lookups), then rotate.
    PartitionMap merged = std::move(next_partitions);
    for (AttributeSet x : pruned_level) {
      merged.emplace(x, std::move(partitions.at(x)));
    }
    partitions = std::move(merged);
    cplus_prev = std::move(cplus);
    level = std::move(next_level);
    std::sort(level.begin(), level.end());
    ++ell;
  }

  SortCanonically(&fds);
  LIMBO_OBS_COUNT("tane.products", products);
  LIMBO_OBS_COUNT("tane.fds", fds.size());
  return fds;
}

}  // namespace limbo::fd
