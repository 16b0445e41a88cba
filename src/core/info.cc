#include "core/info.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace limbo::core {

namespace {
constexpr double kLog2e = 1.4426950408889634;
double Log2(double x) { return std::log(x) * kLog2e; }
}  // namespace

double Entropy(std::span<const double> probabilities) {
  double h = 0.0;
  for (double p : probabilities) {
    if (p > 0.0) h -= p * Log2(p);
  }
  return h;
}

namespace {

/// Dense accumulation of the marginal, O(total nnz + max id). The merge-
/// based alternative is quadratic when the marginal support is large.
std::vector<double> DenseMarginal(const WeightedRows& data) {
  LIMBO_CHECK(data.weights.size() == data.rows.size());
  // Scan every entry for the max id rather than trusting entries().back():
  // SparseDistribution promises sorted entries, but a row that violates
  // that (e.g. from a hand-built or deserialized source) must not make the
  // accumulation below write out of bounds. Same O(total nnz) complexity.
  uint32_t max_id = 0;
  bool any = false;
  for (const auto& row : data.rows) {
    for (const auto& e : row.entries()) {
      max_id = std::max(max_id, e.id);
      any = true;
    }
  }
  std::vector<double> dense(any ? max_id + 1 : 0, 0.0);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    const double w = data.weights[i];
    if (w <= 0.0) continue;
    for (const auto& e : data.rows[i].entries()) {
      LIMBO_CHECK(e.id < dense.size());
      dense[e.id] += w * e.mass;
    }
  }
  return dense;
}

}  // namespace

SparseDistribution Marginal(const WeightedRows& data) {
  std::vector<double> dense = DenseMarginal(data);
  std::vector<SparseDistribution::Entry> entries;
  for (uint32_t id = 0; id < dense.size(); ++id) {
    if (dense[id] > 0.0) entries.push_back({id, dense[id]});
  }
  if (entries.empty()) return SparseDistribution();
  return SparseDistribution::FromPairs(std::move(entries));
}

void MutualInformationAccumulator::AddMarginal(double weight,
                                               const SparseDistribution& row) {
  if (weight <= 0.0) return;
  for (const auto& e : row.entries()) {
    // Grow on demand. Each dense cell is an independent accumulator, so
    // the growth schedule cannot change any sum — only the row order can,
    // and both passes see the rows in source order.
    if (e.id >= dense_.size()) dense_.resize(static_cast<size_t>(e.id) + 1);
    dense_[e.id] += weight * e.mass;
  }
}

void MutualInformationAccumulator::AddInformation(
    double weight, const SparseDistribution& row) {
  if (weight <= 0.0) return;
  for (const auto& e : row.entries()) {
    LIMBO_CHECK(e.id < dense_.size());
    info_ += weight * e.mass * Log2(e.mass / dense_[e.id]);
  }
}

double MutualInformation(const WeightedRows& data) {
  LIMBO_CHECK(data.weights.size() == data.rows.size());
  MutualInformationAccumulator acc;
  for (size_t i = 0; i < data.rows.size(); ++i) {
    acc.AddMarginal(data.weights[i], data.rows[i]);
  }
  for (size_t i = 0; i < data.rows.size(); ++i) {
    acc.AddInformation(data.weights[i], data.rows[i]);
  }
  return acc.Value();
}

double ConditionalEntropy(const WeightedRows& data) {
  double h = 0.0;
  for (size_t i = 0; i < data.rows.size(); ++i) {
    const double w = data.weights[i];
    if (w <= 0.0) continue;
    h += w * data.rows[i].Entropy();
  }
  return h;
}

}  // namespace limbo::core
