#ifndef LIMBO_CORE_PROB_H_
#define LIMBO_CORE_PROB_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace limbo::core {

/// A sparse probability distribution over a discrete domain indexed by
/// uint32 ids. Entries are sorted by id and strictly positive; absent ids
/// have mass zero. This is the representation of every p(T|c) / p(V|t)
/// vector in the paper — clusters over large domains stay cheap as long as
/// their supports are small, and merges are linear in the union support.
class SparseDistribution {
 public:
  struct Entry {
    uint32_t id;
    double mass;
  };

  SparseDistribution() = default;

  /// Uniform distribution over `ids` (need not be sorted; must be unique).
  static SparseDistribution UniformOver(std::span<const uint32_t> ids);

  /// From explicit (id, mass) pairs; normalizes so masses sum to 1.
  /// Pairs need not be sorted; ids must be unique; masses must be >= 0 and
  /// not all zero.
  static SparseDistribution FromPairs(std::vector<Entry> entries);

  /// From (id, mass) pairs that already form a distribution (e.g. parsed
  /// back from a serialized one): masses are kept bit-for-bit, never
  /// renormalized. Pairs need not be sorted; ids must be unique; masses
  /// must be > 0.
  static SparseDistribution FromNormalizedPairs(std::vector<Entry> entries);

  /// Convex combination w1*a + w2*b (w1 + w2 should be 1 for a valid
  /// distribution; the function does not renormalize). This is Eq. (2) of
  /// the paper with w1 = p(c1)/p(c*), w2 = p(c2)/p(c*).
  static SparseDistribution WeightedMerge(double w1,
                                          const SparseDistribution& a,
                                          double w2,
                                          const SparseDistribution& b);

  size_t SupportSize() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Mass at `id` (0 if absent). O(log support).
  double MassAt(uint32_t id) const;

  /// Sum of masses (1.0 up to rounding for a proper distribution).
  double TotalMass() const;

  /// Shannon entropy, base 2.
  double Entropy() const;

  bool operator==(const SparseDistribution& other) const {
    return entries_ == other.entries_;
  }

 private:
  std::vector<Entry> entries_;

  friend bool operator==(const Entry& a, const Entry& b);
};

inline bool operator==(const SparseDistribution::Entry& a,
                       const SparseDistribution::Entry& b) {
  return a.id == b.id && a.mass == b.mass;
}

/// Kullback–Leibler divergence D_KL[p || q], base 2. Requires the support
/// of p to be contained in the support of q; returns +inf otherwise.
double KlDivergence(const SparseDistribution& p, const SparseDistribution& q);

/// Weighted Jensen–Shannon divergence
///   JS_{w1,w2}[p, q] = w1 D_KL[p || m] + w2 D_KL[q || m],  m = w1 p + w2 q.
/// Computed in one merge pass without materializing m. Base 2; bounded by 1.
double JsDivergence(double w1, const SparseDistribution& p, double w2,
                    const SparseDistribution& q);

/// Support-size ratio at which JsDivergence (and LossKernel) switch from
/// the merge-join evaluation to the asymmetric small-side iteration.
/// Measured in `micro_limbo --kernel`: at equal supports the merge-join
/// path wins (one streaming pass, no per-entry searches); once one side
/// is ~an order of magnitude smaller, walking the small side with
/// galloping lookups into the large side is faster because it skips the
/// large side's private entries entirely (their mass is folded in as
/// 1 − shared). 16 sits comfortably past the crossover for every support
/// shape in BENCH_kernel.json, and the two paths agree to < 1e-12, so
/// the exact value only affects speed, never results (property-tested at
/// the boundary in kernel_test.cc).
inline constexpr size_t kAsymmetricCutoffRatio = 16;

/// Non-owning view of a sorted sparse row: a span of entries plus an
/// optional parallel array of cached log2(mass) values (arena rows carry
/// one; plain SparseDistributions do not). Cached or not, the kernel
/// produces identical bits — the cache holds exactly what Log2(mass)
/// would return — caching just skips the call.
struct DistributionView {
  using Entry = SparseDistribution::Entry;

  std::span<const Entry> entries;
  const double* log2s = nullptr;

  DistributionView() = default;
  // Implicit: every SparseDistribution is viewable.
  DistributionView(const SparseDistribution& d)  // NOLINT
      : entries(d.entries()) {}
  DistributionView(std::span<const Entry> e, const double* logs)
      : entries(e), log2s(logs) {}

  size_t SupportSize() const { return entries.size(); }
  bool Empty() const { return entries.empty(); }
};

/// Slab (CSR) storage for the distribution working set of a clustering
/// run: every row lives in one contiguous {id, mass} array with a
/// parallel cached-log2(mass) array and an offsets table. AIB keeps its
/// slot conditionals here and Phase 3 its representatives, so the
/// quadratic distance scans stream one allocation instead of hopping
/// between per-cluster heap vectors, and the per-entry logs are computed
/// once per row instead of once per evaluation.
///
/// Rows are immutable once appended; merging clusters appends the merged
/// row (AppendMerge) and the caller retires the old index. Appending may
/// reallocate the slab, so hold row *indices* across Append calls and
/// re-take views afterwards.
class DistributionArena {
 public:
  using Entry = SparseDistribution::Entry;

  size_t NumRows() const { return offsets_.size() - 1; }
  size_t NumEntries() const { return entries_.size(); }

  void Clear();
  void ReserveEntries(size_t n);

  /// Copies `row` into the slab, dropping zero-mass entries and caching
  /// log2 of every mass. Returns the new row index.
  size_t Append(DistributionView row);

  /// Writes the weighted merge w1·rows[a] + w2·rows[b] (Eq. 2) directly
  /// into slab scratch — the same per-entry expressions as
  /// SparseDistribution::WeightedMerge, so the masses are bit-identical
  /// to a MergeDcf of the same rows — and returns the new row index.
  /// Zero-mass results (possible only when a weight is 0) are dropped.
  size_t AppendMerge(double w1, size_t a, double w2, size_t b);

  DistributionView Row(size_t i) const {
    const size_t begin = offsets_[i];
    return DistributionView(
        std::span<const Entry>(entries_.data() + begin,
                               offsets_[i + 1] - begin),
        log2s_.data() + begin);
  }

 private:
  std::vector<Entry> entries_;
  std::vector<double> log2s_;  // log2(entries_[k].mass), parallel
  std::vector<size_t> offsets_ = {0};
};

namespace internal {

/// log2(x) as the whole library computes it: std::log(x) times 1/ln 2.
/// Every cached log (arena rows, the kernel's memo) holds exactly this.
double Log2(double x);

/// Direct-mapped memo of Log2 for one LossKernel. A slot is keyed on the
/// exact bit pattern of the argument, and a miss refills the slot with
/// the same Log2 expression, so a lookup returns the bits a fresh call
/// would: memoising a pure function cannot change a result. The δI
/// arguments repeat heavily (cluster weights and the mixture masses
/// w1·p + w2·q of quantized leaf masses): on a 5k DBLP fit 99.4% of the
/// lookups hit.
class Log2Memo {
 public:
  /// 2^12 slots of 16 bytes: 64 KiB per kernel.
  static constexpr int kSlotBits = 12;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;

  Log2Memo();

  /// Slot of an argument: Fibonacci hashing of its bit pattern.
  static size_t SlotOf(double x) {
    return static_cast<size_t>(
        (std::bit_cast<uint64_t>(x) * 0x9E3779B97F4A7C15ull) >>
        (64 - kSlotBits));
  }

  double operator()(double x) {
    const uint64_t key = std::bit_cast<uint64_t>(x);
    Slot& slot = slots_[SlotOf(x)];
    if (slot.key != key) {
      slot.key = key;
      slot.value = Log2(x);
    }
    return slot.value;
  }

 private:
  struct Slot {
    uint64_t key;
    double value;
  };
  std::vector<Slot> slots_;
};

}  // namespace internal

/// Fused δI evaluator (Eq. 3) for one object against many candidates.
///
/// SetObject scatters the object's entries (mass and log2 mass) into a
/// reusable dense scratch once; each Loss() then streams one candidate
/// row in a single pass. Per shared entry the JS integrand is evaluated
/// in the rearranged form
///     w1·p·log2(p) + w2·q·log2(q) − m·log2(m),   m = w1·p + w2·q,
/// which costs one fresh log2 (for m) when both sides carry cached logs,
/// instead of the two of the textbook log2(p/m) + log2(q/m) form.
/// Entries private to the candidate contribute w2·q·log2(1/w2) as they
/// stream; entries private to the object are folded in at the end as
/// w1·(object mass − shared mass)·log2(1/w1). When the object support is
/// kAsymmetricCutoffRatio× smaller than the candidate's, the roles flip:
/// the object side is walked with galloping lookups into the candidate
/// row and the candidate-private mass becomes the residual.
///
/// The fresh logs (of w1, w2 and of each shared entry's m) go through a
/// per-kernel Log2Memo, which returns the bits a direct call would.
///
/// InformationLoss(a, b) IS SetObject(a) + Loss(b), so the batch path is
/// bit-identical to the per-pair path by construction, and determinism
/// across thread counts follows because each evaluation is a pure
/// function of the pair.
class LossKernel {
 public:
  /// Plain per-kernel work tallies — no atomics, because each kernel is
  /// owned by one lane. Call sites flush them into the obs counter
  /// registry after their parallel regions join (FlushKernelStats).
  struct Stats {
    /// Loss() invocations. Thread-invariant: dispatch is structural.
    uint64_t loss_calls = 0;
    /// SetObject() calls that actually scattered the object.
    uint64_t scatters = 0;
    /// SetObject() calls skipped by the same-tag dedup. scatters and
    /// dedup_hits are scheduling tallies: call sites that SetObject once
    /// per work item (Phase 3) produce thread-invariant sums, but sites
    /// that re-set per chunk of a parallel scan (the AIB refresh) make
    /// even the sum depend on how the range was chunked.
    uint64_t dedup_hits = 0;
  };

  /// Fixes the object side. The view's backing storage must outlive
  /// subsequent Loss calls. A nonzero `tag` makes repeated calls with
  /// the same tag no-ops, for call sites that re-set the same object
  /// once per chunk of a parallel scan.
  void SetObject(double p, DistributionView cond, uint64_t tag = 0);

  /// δI(object, candidate) — Eq. 3, bits.
  double Loss(double p, DistributionView cand) const;

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = Stats(); }

 private:
  double JsSmallObject(double w1, double w2, DistributionView cand) const;
  double JsStreamCandidate(double w1, double w2, DistributionView cand) const;

  double object_p_ = 0.0;
  double object_mass_ = 0.0;  // exact Σ mass, in entry order
  DistributionView object_;
  const double* object_log2s_ = nullptr;
  std::vector<double> owned_log2s_;  // object logs when the view has none
  // Dense scratch indexed by id, one {mass, log2 mass} pair per id so a
  // shared entry costs one load; cleared via the touched list. Disabled
  // (two-pointer fallback, identical results) when the object's id
  // universe is too large to scatter.
  struct DenseCell {
    double mass;
    double log2;
  };
  bool use_dense_ = false;
  std::vector<DenseCell> dense_;
  std::vector<uint32_t> touched_;
  uint64_t tag_ = 0;
  // mutable: Loss() is logically const.
  mutable internal::Log2Memo log2_;
  mutable Stats stats_;
};

/// Result of a nearest-candidate scan: the winning candidate's position
/// in the scanned sequence and its δI.
struct NearestCandidate {
  uint32_t index = 0;
  double loss = 0.0;
};

/// The Phase-3 inner loop: fixes `object` in the kernel, streams every
/// candidate arena row through Loss and keeps the strict-< argmin, so
/// the lowest candidate index wins ties and the result is a pure
/// function of the pair set. Phase3Assigner::AssignChunk and the serving
/// engine's assign path (single and batched) all call this one function,
/// which is what makes a served label bit-identical to the batch run's.
/// `candidate_p` and `candidate_rows` are parallel; both must be
/// non-empty.
NearestCandidate FindNearestCandidate(LossKernel* kernel, double object_p,
                                      DistributionView object_cond,
                                      std::span<const double> candidate_p,
                                      const DistributionArena& arena,
                                      std::span<const size_t> candidate_rows);

/// Sums the tallies of a set of per-lane kernels into the obs counters
/// `<prefix>.loss_calls` (work — identical at every thread count) and
/// `<prefix>.scatters` / `<prefix>.dedup_hits` (scheduling — dependent
/// on lane count and chunking). No-op while obs is disabled. Call once
/// per kernel lifetime, after all parallel regions joined.
void FlushKernelStats(const std::vector<LossKernel>& kernels,
                      const std::string& prefix);

namespace internal {

/// The two JsDivergence evaluation paths, exposed for property tests and
/// the kernel microbenchmark. `probes`, when non-null, accumulates the
/// number of id comparisons the galloping lookups perform (the
/// complexity regression tests bound it).
double JsDivergenceMergeJoin(double w1, const SparseDistribution& p,
                             double w2, const SparseDistribution& q);
double JsDivergenceAsymmetric(double w1, const SparseDistribution& p,
                              double w2, const SparseDistribution& q,
                              uint64_t* probes = nullptr);

}  // namespace internal

}  // namespace limbo::core

#endif  // LIMBO_CORE_PROB_H_
