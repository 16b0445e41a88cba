#include "fd/partition.h"

#include <algorithm>
#include <unordered_map>

namespace limbo::fd {

StrippedPartition StrippedPartition::ForAttribute(
    const relation::Relation& rel, relation::AttributeId a) {
  std::unordered_map<relation::ValueId, std::vector<relation::TupleId>> groups;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    groups[rel.At(t, a)].push_back(t);
  }
  std::vector<std::vector<relation::TupleId>> classes;
  for (auto& [value, tuples] : groups) {
    if (tuples.size() >= 2) classes.push_back(std::move(tuples));
  }
  // Deterministic order regardless of hash iteration.
  std::sort(classes.begin(), classes.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  StrippedPartition out;
  for (const auto& cls : classes) {
    out.tuples_.insert(out.tuples_.end(), cls.begin(), cls.end());
    out.ends_.push_back(static_cast<uint32_t>(out.tuples_.size()));
  }
  return out;
}

StrippedPartition StrippedPartition::Product(const StrippedPartition& a,
                                             const StrippedPartition& b,
                                             size_t n) {
  // Standard TANE probe-table product. `owner[t]` maps tuple t to its
  // class index in `a` (or -1). A miner takes thousands of products, so
  // the probe table and the per-a-class counters and write cursors live
  // per thread, sized to the largest product seen, rather than being
  // allocated per product. All three are restored to -1 / 0 / -1 before
  // returning, so a product never sees a stale entry.
  thread_local std::vector<int32_t> owner;
  thread_local std::vector<uint32_t> count;
  thread_local std::vector<int64_t> cursor;
  thread_local std::vector<int32_t> touched;
  if (owner.size() < n) owner.resize(n, -1);
  if (count.size() < a.NumClasses()) {
    count.resize(a.NumClasses(), 0);
    cursor.resize(a.NumClasses(), -1);
  }
  for (size_t i = 0; i < a.NumClasses(); ++i) {
    for (relation::TupleId t : a.Class(i)) owner[t] = static_cast<int32_t>(i);
  }
  StrippedPartition out;
  out.tuples_.reserve(std::min(a.CoveredTuples(), b.CoveredTuples()));
  for (size_t c = 0; c < b.NumClasses(); ++c) {
    const std::span<const relation::TupleId> cls = b.Class(c);
    // Count this b-class's tuples per a-class, in first-seen order.
    for (relation::TupleId t : cls) {
      const int32_t o = owner[t];
      if (o >= 0 && count[o]++ == 0) touched.push_back(o);
    }
    // Every a-class it meets at least twice becomes an output class, laid
    // out in first-seen order; its cursor is where its next tuple goes.
    size_t end = out.tuples_.size();
    for (int32_t o : touched) {
      if (count[o] >= 2) {
        cursor[o] = static_cast<int64_t>(end);
        end += count[o];
        out.ends_.push_back(static_cast<uint32_t>(end));
      }
      count[o] = 0;
    }
    out.tuples_.resize(end);
    for (relation::TupleId t : cls) {
      const int32_t o = owner[t];
      if (o >= 0 && cursor[o] >= 0) out.tuples_[cursor[o]++] = t;
    }
    for (int32_t o : touched) cursor[o] = -1;
    touched.clear();
  }
  for (relation::TupleId t : a.tuples_) owner[t] = -1;
  return out;
}

}  // namespace limbo::fd
