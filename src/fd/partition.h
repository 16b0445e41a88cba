#ifndef LIMBO_FD_PARTITION_H_
#define LIMBO_FD_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace limbo::fd {

/// A *stripped partition* (Huhtala et al., TANE): the equivalence classes
/// of tuples under "agree on attribute set X", with singleton classes
/// removed. The full-partition class count is recoverable as
///   |π| = NumClasses() + (n - CoveredTuples()).
/// Classes are stored back to back in one tuple array, so a product
/// allocates two arrays rather than one per class.
class StrippedPartition {
 public:
  StrippedPartition() = default;

  /// Partition of `rel` under a single attribute. Classes are ordered by
  /// their first tuple, tuples ascending within a class.
  static StrippedPartition ForAttribute(const relation::Relation& rel,
                                        relation::AttributeId a);

  /// Product π_a · π_b — the partition of the union of the underlying
  /// attribute sets. `n` is the relation's tuple count. Classes come in
  /// b-class order, then in first-seen order within a b-class, each
  /// holding its tuples in b-class order.
  static StrippedPartition Product(const StrippedPartition& a,
                                   const StrippedPartition& b, size_t n);

  size_t NumClasses() const { return ends_.size(); }
  /// The tuples of class i.
  std::span<const relation::TupleId> Class(size_t i) const {
    const size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {tuples_.data() + begin, ends_[i] - begin};
  }
  size_t CoveredTuples() const { return tuples_.size(); }

  /// n - |π_full|; two partitions over the same relation are equal as
  /// full partitions iff one refines the other and their ranks agree.
  /// TANE's validity test X→A iff |π_X| = |π_{X∪A}| becomes
  /// Rank(X) == Rank(X∪A).
  size_t Rank() const { return CoveredTuples() - NumClasses(); }

  /// True iff every tuple is alone in its class (X is a superkey).
  bool IsSuperkey() const { return ends_.empty(); }

 private:
  std::vector<relation::TupleId> tuples_;  // class after class
  std::vector<uint32_t> ends_;             // one past each class's last tuple
};

}  // namespace limbo::fd

#endif  // LIMBO_FD_PARTITION_H_
