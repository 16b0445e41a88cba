#include "fd/approx.h"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "fd/partition.h"
#include "util/strings.h"

namespace limbo::fd {

namespace {

using relation::AttributeId;
using relation::TupleId;

/// g3 error of X → A from the stripped partitions of X and X ∪ {A}:
/// within every X-class keep the largest subgroup agreeing on A; all
/// X-singletons survive for free.
double G3FromPartitions(const StrippedPartition& px,
                        const StrippedPartition& pxa, size_t n) {
  if (n == 0) return 0.0;
  // Tuple -> class id in π_{X∪A}; tuples outside stripped classes are
  // singletons there.
  std::vector<int32_t> xa_class(n, -1);
  for (size_t c = 0; c < pxa.NumClasses(); ++c) {
    for (TupleId t : pxa.Class(c)) xa_class[t] = static_cast<int32_t>(c);
  }
  size_t kept = n - px.CoveredTuples();  // X-singletons
  std::unordered_map<int32_t, size_t> counts;
  for (size_t c = 0; c < px.NumClasses(); ++c) {
    counts.clear();
    size_t best = 0;
    for (TupleId t : px.Class(c)) {
      const int32_t c = xa_class[t];
      if (c < 0) {
        best = std::max<size_t>(best, 1);  // XA-singleton
      } else {
        best = std::max(best, ++counts[c]);
      }
    }
    kept += best;
  }
  return 1.0 - static_cast<double>(kept) / static_cast<double>(n);
}

}  // namespace

util::Result<std::vector<ApproximateFd>> MineApproximateFds(
    const relation::Relation& rel, const ApproxMinerOptions& options) {
  if (options.epsilon < 0.0 || options.epsilon >= 1.0) {
    return util::Status::InvalidArgument("epsilon must be in [0, 1)");
  }
  std::vector<ApproximateFd> found;
  const size_t n = rel.NumTuples();
  const size_t m = rel.NumAttributes();
  if (n < 1 || m == 0) return found;

  // Single-attribute partitions.
  std::vector<StrippedPartition> single(m);
  for (size_t a = 0; a < m; ++a) {
    single[a] =
        StrippedPartition::ForAttribute(rel, static_cast<AttributeId>(a));
  }

  // Minimal qualifying LHSs per RHS attribute (for minimality pruning).
  std::vector<std::vector<AttributeSet>> minimal_lhs(m);
  auto dominated = [&](AttributeSet x, AttributeId a) {
    for (AttributeSet seen : minimal_lhs[a]) {
      if (seen.IsSubsetOf(x)) return true;
    }
    return false;
  };

  // Level 0: ∅ → A qualifies when removing all-but-the-largest A-group
  // is cheap enough.
  if (options.min_lhs == 0) {
    for (size_t a = 0; a < m; ++a) {
      size_t largest = 0;
      for (size_t c = 0; c < single[a].NumClasses(); ++c) {
        largest = std::max(largest, single[a].Class(c).size());
      }
      const size_t covered = single[a].CoveredTuples();
      largest = std::max<size_t>(largest, covered < n ? 1 : 0);
      const double g3 = 1.0 - static_cast<double>(largest) /
                                  static_cast<double>(n);
      if (g3 <= options.epsilon) {
        found.push_back({{AttributeSet(), AttributeSet::Single(
                                              static_cast<AttributeId>(a))},
                         g3});
        minimal_lhs[a].push_back(AttributeSet());
      }
    }
  }

  // Levelwise over LHS sets.
  std::unordered_map<AttributeSet, StrippedPartition> level;
  for (size_t a = 0; a < m; ++a) {
    level.emplace(AttributeSet::Single(static_cast<AttributeId>(a)),
                  single[a]);
  }
  size_t ell = 1;
  while (!level.empty() && ell <= options.max_lhs) {
    if (ell >= options.min_lhs) {
      for (const auto& [x, px] : level) {
        for (size_t a = 0; a < m; ++a) {
          const auto attr = static_cast<AttributeId>(a);
          if (x.Contains(attr) || dominated(x, attr)) continue;
          const StrippedPartition pxa =
              StrippedPartition::Product(px, single[a], n);
          const double g3 = G3FromPartitions(px, pxa, n);
          if (g3 <= options.epsilon) {
            found.push_back({{x, AttributeSet::Single(attr)}, g3});
            minimal_lhs[a].push_back(x);
          }
        }
      }
    }
    // Next level: prefix join (all subsets present in the current level).
    std::unordered_map<AttributeSet, StrippedPartition> next;
    std::vector<AttributeSet> keys;
    keys.reserve(level.size());
    for (const auto& [x, px] : level) keys.push_back(x);
    std::sort(keys.begin(), keys.end());
    std::unordered_map<AttributeSet, std::vector<AttributeSet>> by_prefix;
    for (AttributeSet x : keys) {
      const auto max_attr = static_cast<AttributeId>(
          63 - std::countl_zero(x.bits()));
      by_prefix[x.Without(max_attr)].push_back(x);
    }
    std::unordered_set<AttributeSet> alive(keys.begin(), keys.end());
    for (auto& [prefix, members] : by_prefix) {
      std::sort(members.begin(), members.end());
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          const AttributeSet z = members[i].Union(members[j]);
          bool ok = true;
          for (AttributeId a : z.ToList()) {
            if (!alive.contains(z.Without(a))) {
              ok = false;
              break;
            }
          }
          if (ok) {
            next.emplace(z, StrippedPartition::Product(
                                level.at(members[i]), level.at(members[j]),
                                n));
          }
        }
      }
    }
    level = std::move(next);
    ++ell;
  }

  std::sort(found.begin(), found.end(),
            [](const ApproximateFd& a, const ApproximateFd& b) {
              if (a.fd.lhs.bits() != b.fd.lhs.bits()) {
                return a.fd.lhs.bits() < b.fd.lhs.bits();
              }
              return a.fd.rhs.bits() < b.fd.rhs.bits();
            });
  return found;
}

}  // namespace limbo::fd
