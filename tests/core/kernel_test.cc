// Tests for the arena-backed distance kernel layer: DistributionArena,
// LossKernel and its log2 memo, the batch/per-pair bit-identity contract,
// the asymmetric JsDivergence path at its cutoff boundary, and the
// galloping-lookup complexity bound.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/aib.h"
#include "core/dcf.h"
#include "core/limbo.h"
#include "core/prob.h"

namespace limbo::core {
namespace {

SparseDistribution RandomDistribution(std::mt19937& rng, size_t support,
                                      uint32_t universe) {
  std::vector<uint32_t> ids(universe);
  for (uint32_t i = 0; i < universe; ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  std::uniform_real_distribution<double> mass(0.05, 1.0);
  std::vector<SparseDistribution::Entry> entries;
  entries.reserve(support);
  for (size_t k = 0; k < support; ++k) {
    entries.push_back({ids[k], mass(rng)});
  }
  return SparseDistribution::FromPairs(std::move(entries));
}

Dcf RandomDcf(std::mt19937& rng, size_t support, uint32_t universe,
              double p) {
  Dcf d;
  d.p = p;
  d.cond = RandomDistribution(rng, support, universe);
  return d;
}

/// Reference δI: Eq. 3 straight through the public JsDivergence, the
/// pre-kernel formulation.
double ReferenceLoss(const Dcf& a, const Dcf& b) {
  const double total = a.p + b.p;
  if (total <= 0.0) return 0.0;
  return total * JsDivergence(a.p / total, a.cond, b.p / total, b.cond);
}

// ---------------------------------------------------------------------------
// DistributionArena

TEST(DistributionArenaTest, AppendRoundTripsEntriesAndLogs) {
  std::mt19937 rng(7);
  DistributionArena arena;
  std::vector<SparseDistribution> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(RandomDistribution(rng, 8 + i, 64));
    ASSERT_EQ(arena.Append(rows.back()), static_cast<size_t>(i));
  }
  ASSERT_EQ(arena.NumRows(), 5u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const DistributionView view = arena.Row(i);
    ASSERT_EQ(view.SupportSize(), rows[i].SupportSize());
    for (size_t k = 0; k < view.entries.size(); ++k) {
      EXPECT_EQ(view.entries[k].id, rows[i].entries()[k].id);
      EXPECT_EQ(view.entries[k].mass, rows[i].entries()[k].mass);
      // Cached log must be exactly what a fresh evaluation yields.
      EXPECT_EQ(view.log2s[k],
                std::log(rows[i].entries()[k].mass) * 1.4426950408889634);
    }
  }
}

TEST(DistributionArenaTest, AppendMergeMatchesWeightedMergeBitwise) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const SparseDistribution a = RandomDistribution(rng, 6 + trial % 5, 40);
    const SparseDistribution b = RandomDistribution(rng, 9 + trial % 7, 40);
    std::uniform_real_distribution<double> wd(0.1, 0.9);
    const double w1 = wd(rng);
    const double w2 = 1.0 - w1;
    DistributionArena arena;
    const size_t ra = arena.Append(a);
    const size_t rb = arena.Append(b);
    const size_t rm = arena.AppendMerge(w1, ra, w2, rb);
    const SparseDistribution expected =
        SparseDistribution::WeightedMerge(w1, a, w2, b);
    const DistributionView got = arena.Row(rm);
    ASSERT_EQ(got.SupportSize(), expected.SupportSize());
    for (size_t k = 0; k < got.entries.size(); ++k) {
      EXPECT_EQ(got.entries[k].id, expected.entries()[k].id);
      EXPECT_EQ(got.entries[k].mass, expected.entries()[k].mass);
    }
  }
}

TEST(DistributionArenaTest, AppendMergeSurvivesSlabReallocation) {
  // No ReserveEntries: every append may realloc, and AppendMerge reads
  // its own slab while writing into it.
  std::mt19937 rng(13);
  DistributionArena arena;
  size_t row0 = arena.Append(RandomDistribution(rng, 12, 64));
  size_t row1 = arena.Append(RandomDistribution(rng, 12, 64));
  for (int step = 0; step < 10; ++step) {
    const size_t merged = arena.AppendMerge(0.5, row0, 0.5, row1);
    const DistributionView view = arena.Row(merged);
    double total = 0.0;
    for (const auto& e : view.entries) total += e.mass;
    EXPECT_NEAR(total, 1.0, 1e-9);
    row0 = row1;
    row1 = merged;
  }
}

// ---------------------------------------------------------------------------
// LossKernel vs the reference formulation

TEST(LossKernelTest, MatchesReferenceAcrossShapes) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> pd(0.01, 1.0);
  const struct {
    size_t so, sc;
    uint32_t universe;
  } shapes[] = {
      {1, 1, 8},      {4, 4, 16},     {8, 200, 512},  {200, 8, 512},
      {64, 64, 96},   {1, 500, 1024}, {500, 1, 1024}, {33, 512, 2048},
  };
  for (const auto& shape : shapes) {
    for (int trial = 0; trial < 8; ++trial) {
      const Dcf a = RandomDcf(rng, shape.so, shape.universe, pd(rng));
      const Dcf b = RandomDcf(rng, shape.sc, shape.universe, pd(rng));
      LossKernel kernel;
      kernel.SetObject(a.p, a.cond);
      const double got = kernel.Loss(b.p, b.cond);
      EXPECT_NEAR(got, ReferenceLoss(a, b), 1e-12)
          << "so=" << shape.so << " sc=" << shape.sc << " trial=" << trial;
    }
  }
}

TEST(LossKernelTest, ZeroMassAndEmptySides) {
  LossKernel kernel;
  Dcf a;
  a.p = 0.0;
  kernel.SetObject(a.p, a.cond);
  EXPECT_EQ(kernel.Loss(0.0, SparseDistribution{}), 0.0);
  const SparseDistribution d =
      SparseDistribution::FromPairs({{0, 0.5}, {1, 0.5}});
  EXPECT_EQ(kernel.Loss(1.0, d), 0.0);  // empty object side
  kernel.SetObject(0.5, d);
  EXPECT_EQ(kernel.Loss(0.0, SparseDistribution{}), 0.0);
  // Identical conditionals lose nothing.
  EXPECT_NEAR(kernel.Loss(0.5, d), 0.0, 1e-12);
}

TEST(LossKernelTest, HugeIdsUseTwoPointerFallbackWithSameResults) {
  // Ids beyond the dense-scatter cap exercise the fallback path.
  std::mt19937 rng(19);
  std::vector<SparseDistribution::Entry> pe;
  std::vector<SparseDistribution::Entry> qe;
  std::uniform_real_distribution<double> mass(0.1, 1.0);
  for (uint32_t k = 0; k < 20; ++k) {
    pe.push_back({(1u << 23) + 3 * k, mass(rng)});
    qe.push_back({(1u << 23) + 2 * k, mass(rng)});
  }
  Dcf a;
  a.p = 0.4;
  a.cond = SparseDistribution::FromPairs(std::move(pe));
  Dcf b;
  b.p = 0.6;
  b.cond = SparseDistribution::FromPairs(std::move(qe));
  LossKernel kernel;
  kernel.SetObject(a.p, a.cond);
  EXPECT_NEAR(kernel.Loss(b.p, b.cond), ReferenceLoss(a, b), 1e-12);
}

TEST(LossKernelTest, TagMakesRepeatSetObjectANoOp) {
  const SparseDistribution da =
      SparseDistribution::FromPairs({{0, 0.5}, {1, 0.5}});
  const SparseDistribution db =
      SparseDistribution::FromPairs({{2, 0.5}, {3, 0.5}});
  const SparseDistribution cand =
      SparseDistribution::FromPairs({{0, 0.25}, {1, 0.25}, {2, 0.5}});
  LossKernel kernel;
  kernel.SetObject(0.5, da, /*tag=*/1);
  const double with_a = kernel.Loss(0.5, cand);
  // Same tag: the object stays `da` even though we pass `db`.
  kernel.SetObject(0.5, db, /*tag=*/1);
  EXPECT_EQ(kernel.Loss(0.5, cand), with_a);
  // New tag: the object switches.
  kernel.SetObject(0.5, db, /*tag=*/2);
  EXPECT_NE(kernel.Loss(0.5, cand), with_a);
}

// ---------------------------------------------------------------------------
// The log2 memo is transparent: bits, not tolerances

double FreshLog2(double x) { return std::log(x) * 1.4426950408889634; }

/// δI exactly as LossKernel evaluates it (same path choice, same terms,
/// same expression order), with every log2 computed fresh: no memo, no
/// cached row logs. Whatever a kernel's memo holds, its result must have
/// these bits.
double UncachedKernelLoss(double po, const SparseDistribution& o, double pc,
                          const SparseDistribution& c) {
  const double total = po + pc;
  if (total <= 0.0) return 0.0;
  if (o.Empty() || c.Empty()) return 0.0;
  const double w1 = po / total;
  const double w2 = pc / total;
  const double log_inv_w1 = (w1 > 0.0) ? -FreshLog2(w1) : 0.0;
  const double log_inv_w2 = (w2 > 0.0) ? -FreshLog2(w2) : 0.0;
  double d = 0.0;
  if (o.SupportSize() * kAsymmetricCutoffRatio < c.SupportSize()) {
    double shared_c = 0.0;
    for (const auto& e : o.entries()) {
      const double pm = e.mass;
      const double qm = c.MassAt(e.id);
      if (qm > 0.0) {
        const double mm = w1 * pm + w2 * qm;
        d += w1 * pm * FreshLog2(pm) + w2 * qm * FreshLog2(qm) -
             mm * FreshLog2(mm);
        shared_c += qm;
      } else {
        d += w1 * pm * log_inv_w1;
      }
    }
    const double c_only = 1.0 - shared_c;
    if (c_only > 0.0) d += w2 * c_only * log_inv_w2;
  } else {
    double object_mass = 0.0;
    for (const auto& e : o.entries()) object_mass += e.mass;
    double shared_o = 0.0;
    for (const auto& e : c.entries()) {
      const double qm = e.mass;
      const double pm = o.MassAt(e.id);
      if (pm == 0.0) {
        d += w2 * qm * log_inv_w2;
      } else {
        const double mm = w1 * pm + w2 * qm;
        d += w1 * pm * FreshLog2(pm) + w2 * qm * FreshLog2(qm) -
             mm * FreshLog2(mm);
        shared_o += pm;
      }
    }
    const double o_only = object_mass - shared_o;
    if (o_only > 0.0) d += w1 * o_only * log_inv_w1;
  }
  return total * (d < 0.0 ? 0.0 : d);
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

Dcf WithMass(double p, SparseDistribution cond) {
  Dcf d;
  d.p = p;
  d.cond = std::move(cond);
  return d;
}

/// Random (object, candidate) pairs on both kernel paths: supports from
/// equal to 64x apart either way, and masses drawn from a few quantized
/// levels so mixture masses repeat and the memo gets hits.
std::vector<std::pair<Dcf, Dcf>> RandomPairs(std::mt19937& rng, int count) {
  const struct {
    size_t so, sc;
    uint32_t universe;
  } shapes[] = {{1, 1, 8},     {4, 4, 16},    {8, 200, 512}, {200, 8, 512},
                {64, 64, 96},  {1, 500, 1024}, {500, 1, 1024},
                {3, 49, 128},  {3, 47, 128},  {33, 512, 2048}};
  std::uniform_int_distribution<int> level(1, 8);
  std::vector<std::pair<Dcf, Dcf>> pairs;
  for (int i = 0; i < count; ++i) {
    const auto& shape = shapes[i % std::size(shapes)];
    Dcf a = RandomDcf(rng, shape.so, shape.universe, level(rng) / 64.0);
    Dcf b = RandomDcf(rng, shape.sc, shape.universe, level(rng) / 64.0);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

TEST(LossKernelMemoTest, MatchesUncachedReferenceBitForBit) {
  std::mt19937 rng(41);
  const auto pairs = RandomPairs(rng, 400);
  LossKernel kernel;  // one kernel throughout: the memo fills and churns
  size_t small_object = 0;
  for (const auto& [a, b] : pairs) {
    if (a.cond.SupportSize() * kAsymmetricCutoffRatio < b.cond.SupportSize()) {
      ++small_object;
    }
    kernel.SetObject(a.p, a.cond);
    EXPECT_EQ(Bits(kernel.Loss(b.p, b.cond)),
              Bits(UncachedKernelLoss(a.p, a.cond, b.p, b.cond)))
        << "so=" << a.cond.SupportSize() << " sc=" << b.cond.SupportSize();
    // Arena rows carry cached logs; the result must not care.
    DistributionArena arena;
    const size_t ra = arena.Append(a.cond);
    const size_t rb = arena.Append(b.cond);
    kernel.SetObject(a.p, arena.Row(ra));
    EXPECT_EQ(Bits(kernel.Loss(b.p, arena.Row(rb))),
              Bits(UncachedKernelLoss(a.p, a.cond, b.p, b.cond)));
  }
  // Both paths were exercised.
  EXPECT_GT(small_object, 0u);
  EXPECT_LT(small_object, pairs.size());
}

TEST(LossKernelMemoTest, ColdKernelMatchesWarmedKernel) {
  std::mt19937 rng(43);
  const auto warmup = RandomPairs(rng, 300);
  const auto pairs = RandomPairs(rng, 100);
  LossKernel warm;
  for (const auto& [a, b] : warmup) {
    warm.SetObject(a.p, a.cond);
    warm.Loss(b.p, b.cond);
  }
  for (const auto& [a, b] : pairs) {
    LossKernel cold;
    cold.SetObject(a.p, a.cond);
    warm.SetObject(a.p, a.cond);
    const double from_cold = cold.Loss(b.p, b.cond);
    EXPECT_EQ(Bits(warm.Loss(b.p, b.cond)), Bits(from_cold));
    EXPECT_EQ(Bits(from_cold),
              Bits(UncachedKernelLoss(a.p, a.cond, b.p, b.cond)));
  }
}

TEST(LossKernelMemoTest, MemoReturnsFreshBitsForCollidingArguments) {
  // Two distinct arguments in one slot, looked up alternately: every
  // lookup evicts the other, and each must still read its own log.
  const double x = 0.3;
  double y = 0.0;
  for (uint64_t k = 1; y == 0.0; ++k) {
    const double candidate = 0.3 + static_cast<double>(k) * 1e-7;
    if (internal::Log2Memo::SlotOf(candidate) == internal::Log2Memo::SlotOf(x)) {
      y = candidate;
    }
  }
  internal::Log2Memo memo;
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(Bits(memo(x)), Bits(FreshLog2(x))) << round;
    EXPECT_EQ(Bits(memo(y)), Bits(FreshLog2(y))) << round;
  }
  // 1.0 is what every slot starts keyed on.
  EXPECT_EQ(Bits(memo(1.0)), Bits(FreshLog2(1.0)));
  internal::Log2Memo fresh;
  EXPECT_EQ(Bits(fresh(y)), Bits(FreshLog2(y)));
}

TEST(LossKernelMemoTest, KernelAlternatingCollidingWeightsMatchesReference) {
  // Candidates whose weight w2 = p / (p_o + p) lands in one memo slot
  // with a different value: alternating them makes each evaluation evict
  // the other's log2(1/w2), which every candidate-private entry uses.
  const Dcf object =
      WithMass(0.25, SparseDistribution::FromPairs(
                         {{0, 0.4}, {1, 0.3}, {2, 0.3}}));
  std::vector<double> weights;
  double p1 = 0.0;
  double p2 = 0.0;
  for (int k = 1; p2 == 0.0; ++k) {
    const double p = k / 4096.0;
    const double w2 = p / (object.p + p);
    for (size_t prior = 0; prior < weights.size(); ++prior) {
      if (internal::Log2Memo::SlotOf(weights[prior]) ==
              internal::Log2Memo::SlotOf(w2) &&
          weights[prior] != w2) {
        p1 = (prior + 1) / 4096.0;
        p2 = p;
      }
    }
    weights.push_back(w2);
  }
  const Dcf c1 = WithMass(
      p1, SparseDistribution::FromPairs({{0, 0.5}, {7, 0.25}, {8, 0.25}}));
  const Dcf c2 =
      WithMass(p2, SparseDistribution::FromPairs({{1, 0.5}, {9, 0.5}}));
  LossKernel kernel;
  kernel.SetObject(object.p, object.cond);
  for (int round = 0; round < 4; ++round) {
    EXPECT_EQ(Bits(kernel.Loss(c1.p, c1.cond)),
              Bits(UncachedKernelLoss(object.p, object.cond, c1.p, c1.cond)))
        << round;
    EXPECT_EQ(Bits(kernel.Loss(c2.p, c2.cond)),
              Bits(UncachedKernelLoss(object.p, object.cond, c2.p, c2.cond)))
        << round;
  }
}

// ---------------------------------------------------------------------------
// Batch vs per-pair bit-identity

TEST(InformationLossBatchTest, BitIdenticalToPerPair) {
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> pd(0.01, 1.0);
  std::uniform_int_distribution<size_t> sd(1, 60);
  std::vector<Dcf> candidates;
  for (int i = 0; i < 30; ++i) {
    candidates.push_back(RandomDcf(rng, sd(rng), 256, pd(rng)));
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Dcf object = RandomDcf(rng, sd(rng), 256, pd(rng));
    std::vector<double> batch(candidates.size());
    InformationLossBatch(object, candidates, batch);
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(batch[i], InformationLoss(object, candidates[i])) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Asymmetric JsDivergence path: boundary property + complexity bound

TEST(JsDivergenceBoundaryTest, FastPathMatchesMergeJoinAroundCutoff) {
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> wd(0.05, 0.95);
  std::uniform_int_distribution<size_t> small_d(1, 40);
  // Ratios straddling kAsymmetricCutoffRatio (=16), plus extremes: the
  // public JsDivergence flips paths across the boundary and the result
  // must not care.
  const size_t ratios[] = {1, 2, 8, 14, 15, 16, 17, 18, 32, 64, 200};
  for (const size_t ratio : ratios) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t sp = small_d(rng);
      const size_t sq = sp * ratio + (trial % 3);  // jitter the boundary
      const uint32_t universe = static_cast<uint32_t>(2 * (sp + sq) + 8);
      const SparseDistribution p = RandomDistribution(rng, sp, universe);
      const SparseDistribution q = RandomDistribution(rng, sq, universe);
      const double w1 = wd(rng);
      const double w2 = 1.0 - w1;
      const double joined = internal::JsDivergenceMergeJoin(w1, p, w2, q);
      const double fast = internal::JsDivergenceAsymmetric(w1, p, w2, q);
      EXPECT_NEAR(fast, joined, 1e-12)
          << "ratio=" << ratio << " sp=" << sp << " sq=" << sq;
      // And the dispatching entry point agrees with both.
      EXPECT_NEAR(JsDivergence(w1, p, w2, q), joined, 1e-12);
    }
  }
}

TEST(JsDivergenceGallopTest, EqualSizeInputsStayLinear) {
  // Satellite regression: the asymmetric path must never regress past
  // the merge-join path on equal-size inputs. Merge-join costs
  // |p| + |q| id steps; the galloping sweep is bounded by a small
  // constant per p-entry when gaps are constant.
  const size_t n = 4096;
  std::vector<SparseDistribution::Entry> pe;
  std::vector<SparseDistribution::Entry> qe;
  for (uint32_t k = 0; k < n; ++k) {
    pe.push_back({2 * k, 1.0});      // evens
    qe.push_back({2 * k + 1, 1.0});  // odds: worst-case interleave
  }
  const auto p = SparseDistribution::FromPairs(std::move(pe));
  const auto q = SparseDistribution::FromPairs(std::move(qe));
  uint64_t probes = 0;
  internal::JsDivergenceAsymmetric(0.5, p, 0.5, q, &probes);
  EXPECT_LE(probes, 2 * (p.SupportSize() + q.SupportSize()));

  // Identical supports: each lookup lands on the next entry.
  std::vector<SparseDistribution::Entry> se;
  for (uint32_t k = 0; k < n; ++k) se.push_back({3 * k, 1.0});
  const auto s = SparseDistribution::FromPairs(std::move(se));
  probes = 0;
  internal::JsDivergenceAsymmetric(0.5, s, 0.5, s, &probes);
  EXPECT_LE(probes, 2 * s.SupportSize());
}

TEST(JsDivergenceGallopTest, SmallIntoHugeStaysLogarithmic) {
  // |p| = 32 spread across |q| = 65536: probes must be
  // O(|p| · log(|q|/|p|)), nowhere near the O(|q|) a naive linear
  // two-pointer advance would cost.
  const size_t sq = 65536;
  const size_t sp = 32;
  std::vector<SparseDistribution::Entry> qe;
  qe.reserve(sq);
  for (uint32_t k = 0; k < sq; ++k) qe.push_back({k, 1.0});
  std::vector<SparseDistribution::Entry> pe;
  for (uint32_t k = 0; k < sp; ++k) {
    pe.push_back({static_cast<uint32_t>(k * (sq / sp)), 1.0});
  }
  const auto p = SparseDistribution::FromPairs(std::move(pe));
  const auto q = SparseDistribution::FromPairs(std::move(qe));
  uint64_t probes = 0;
  internal::JsDivergenceAsymmetric(0.5, p, 0.5, q, &probes);
  EXPECT_LE(probes, sp * (2 * 16 + 4));  // 2·log2(gap) + O(1) per entry
  EXPECT_LT(probes, sq / 4);             // far from linear in |q|
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: the arena kernels vs per-pair dispatch

class KernelEquivalenceTest : public ::testing::TestWithParam<size_t> {};

std::vector<Dcf> MixedInputs() {
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> pd(0.2, 1.0);
  std::uniform_int_distribution<size_t> sd(2, 24);
  std::vector<Dcf> inputs;
  double total = 0.0;
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(RandomDcf(rng, sd(rng), 160, pd(rng)));
    total += inputs.back().p;
  }
  for (Dcf& d : inputs) d.p /= total;
  return inputs;
}

TEST_P(KernelEquivalenceTest, AibMergeSequencesBitIdentical) {
  // Replays AIB's merges with MergeDcf and re-evaluates each merge's δI
  // per pair through InformationLoss, in the orientation AIB evaluates
  // it: a pair of inputs from the matrix build with the lower id as the
  // object, any pair holding a merged cluster from that (newer, higher-
  // id) cluster's refresh with it as the object.
  const std::vector<Dcf> inputs = MixedInputs();
  AibOptions options;
  options.threads = GetParam();
  auto aib = AgglomerativeIb(inputs, options);
  ASSERT_TRUE(aib.ok());
  ASSERT_EQ(aib->merges().size(), inputs.size() - 1);
  std::vector<Dcf> clusters = inputs;
  double cumulative = 0.0;
  for (size_t i = 0; i < aib->merges().size(); ++i) {
    const Merge& m = aib->merges()[i];
    ASSERT_LT(m.left, m.right) << i;
    ASSERT_EQ(m.merged, clusters.size()) << i;
    const Dcf& lo = clusters[m.left];
    const Dcf& hi = clusters[m.right];
    const double loss = m.right >= inputs.size() ? InformationLoss(hi, lo)
                                                 : InformationLoss(lo, hi);
    cumulative += loss;
    Dcf merged = MergeDcf(lo, hi);
    EXPECT_EQ(m.delta_i, loss) << i;
    EXPECT_EQ(m.cumulative_loss, cumulative) << i;
    EXPECT_EQ(m.p_merged, merged.p) << i;
    clusters.push_back(std::move(merged));
  }
}

TEST_P(KernelEquivalenceTest, Phase3AssignmentsAndLossesBitIdentical) {
  const std::vector<Dcf> objects = MixedInputs();
  auto aib = AgglomerativeIb(objects);
  ASSERT_TRUE(aib.ok());
  auto reps = ClusterDcfsAtK(objects, *aib, 5);
  ASSERT_TRUE(reps.ok());
  std::vector<double> batch_loss;
  std::vector<double> pair_loss;
  auto batch = LimboPhase3(objects, *reps, &batch_loss, GetParam(),
                           /*batch_kernel=*/true);
  auto pair = LimboPhase3(objects, *reps, &pair_loss, GetParam(),
                          /*batch_kernel=*/false);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(pair.ok());
  EXPECT_EQ(*batch, *pair);
  ASSERT_EQ(batch_loss.size(), pair_loss.size());
  for (size_t i = 0; i < batch_loss.size(); ++i) {
    EXPECT_EQ(batch_loss[i], pair_loss[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelEquivalenceTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace limbo::core
