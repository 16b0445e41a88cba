#ifndef LIMBO_CORE_INFO_H_
#define LIMBO_CORE_INFO_H_

#include <span>
#include <vector>

#include "core/prob.h"

namespace limbo::core {

/// A weighted collection of conditional distributions: row i carries prior
/// weight `weights[i]` (p(object_i)) and conditional `rows[i]` (p(T|object_i)).
/// This is the sparse form of the paper's matrices M and N.
struct WeightedRows {
  std::vector<double> weights;
  std::vector<SparseDistribution> rows;
};

/// Shannon entropy (base 2) of an explicit probability vector.
/// Zero-probability entries contribute 0.
double Entropy(std::span<const double> probabilities);

/// Marginal p(T) = sum_i w_i * p(T | object_i) of a weighted row set.
SparseDistribution Marginal(const WeightedRows& data);

/// Mutual information I(O; T) (base 2) of a weighted row set:
///   I = sum_i w_i * D_KL[ p(T|o_i) || p(T) ].
double MutualInformation(const WeightedRows& data);

/// Two-pass streaming computation of I(O; T) that never holds the rows:
/// feed every row to AddMarginal (pass 1), rewind the source, feed the
/// same rows in the same order to AddInformation (pass 2), then read
/// Value(). The accumulation order and arithmetic are exactly those of
/// MutualInformation (which is now implemented on top of this), so a
/// streamed computation is bit-identical to the materialized call.
class MutualInformationAccumulator {
 public:
  /// Pass 1: accumulates w * p(T|o) into the dense marginal.
  void AddMarginal(double weight, const SparseDistribution& row);

  /// Pass 2: accumulates w * sum_t p(t|o) log2(p(t|o) / p(t)). Every row
  /// must have gone through AddMarginal first.
  void AddInformation(double weight, const SparseDistribution& row);

  double Value() const { return info_ < 0.0 ? 0.0 : info_; }

 private:
  std::vector<double> dense_;  // the marginal p(T), grown on demand
  double info_ = 0.0;
};

/// Conditional entropy H(T | O) = H(T) - I(O; T), computed directly as
///   sum_i w_i * H(p(T|o_i)).
double ConditionalEntropy(const WeightedRows& data);

}  // namespace limbo::core

#endif  // LIMBO_CORE_INFO_H_
