#include "schemes/entropy_oracle.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fd/attribute_set.h"
#include "relation/relation.h"
#include "relation/row_source.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::schemes {
namespace {

using fd::AttributeSet;

/// Ground-truth H(X): project every tuple onto X's attribute texts and
/// count distinct combinations the slow, obvious way.
double BruteForceEntropy(const relation::Relation& rel, AttributeSet x) {
  std::map<std::vector<std::string>, uint64_t> counts;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::vector<std::string> key;
    for (relation::AttributeId a : x.ToList()) {
      key.push_back(rel.TextAt(t, a));
    }
    ++counts[key];
  }
  const double n = static_cast<double>(rel.NumTuples());
  double h = std::log2(n);
  for (const auto& [key, c] : counts) {
    h -= static_cast<double>(c) * std::log2(static_cast<double>(c)) / n;
  }
  return h < 0.0 ? 0.0 : h;
}

/// Random categorical relation: m attributes, each value drawn from a
/// per-attribute alphabet of `width` symbols.
relation::Relation RandomRelation(size_t rows, size_t m, size_t width,
                                  uint64_t seed) {
  util::Random rng(seed);
  std::vector<std::string> header;
  for (size_t a = 0; a < m; ++a) header.push_back("A" + std::to_string(a));
  std::vector<std::vector<std::string>> data;
  for (size_t t = 0; t < rows; ++t) {
    std::vector<std::string> row;
    for (size_t a = 0; a < m; ++a) {
      row.push_back("v" + std::to_string(rng.Uniform(width)));
    }
    data.push_back(std::move(row));
  }
  return limbo::testing::MakeRelation(std::move(header), data);
}

TEST(EntropyOracle, MatchesBruteForceOnPaperExample) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  const size_t m = rel.NumAttributes();
  for (uint64_t bits = 0; bits < (uint64_t{1} << m); ++bits) {
    const AttributeSet x(bits);
    auto h = oracle.H(x);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    EXPECT_NEAR(*h, BruteForceEntropy(rel, x), 1e-12) << x.bits();
  }
}

TEST(EntropyOracle, MatchesBruteForceOnRandomRelations) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    const relation::Relation rel = RandomRelation(200, 4, 3, seed);
    relation::RelationRowSource source(rel);
    EntropyOracle oracle(source);
    std::vector<AttributeSet> sets;
    for (uint64_t bits = 1; bits < 16; ++bits) sets.push_back(AttributeSet(bits));
    auto hs = oracle.HBatch(sets);
    ASSERT_TRUE(hs.ok());
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_NEAR((*hs)[i], BruteForceEntropy(rel, sets[i]), 1e-12);
    }
  }
}

TEST(EntropyOracle, EmptySetIsZeroWithoutAPass) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  auto h = oracle.H(AttributeSet());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, 0.0);
  EXPECT_EQ(oracle.stats().passes, 0u);
}

TEST(EntropyOracle, MonotoneInTheSubset) {
  // H is monotone: adding attributes never loses information.
  for (uint64_t seed : {3u, 11u, 99u}) {
    const relation::Relation rel = RandomRelation(150, 5, 3, seed);
    relation::RelationRowSource source(rel);
    EntropyOracle oracle(source);
    util::Random rng(seed * 31 + 1);
    for (int trial = 0; trial < 20; ++trial) {
      const AttributeSet x(rng.Uniform(32));
      const AttributeSet xy(
          x.Union(AttributeSet(rng.Uniform(32))).bits());
      auto hx = oracle.H(x);
      auto hxy = oracle.H(xy);
      ASSERT_TRUE(hx.ok() && hxy.ok());
      EXPECT_GE(*hxy, *hx - 1e-12);
    }
  }
}

TEST(EntropyOracle, SubmodularOnRandomRelations) {
  // Diminishing returns: for X ⊆ Y and a ∉ Y,
  //   H(X ∪ a) − H(X) >= H(Y ∪ a) − H(Y).
  for (uint64_t seed : {5u, 23u, 77u}) {
    const relation::Relation rel = RandomRelation(150, 5, 3, seed);
    relation::RelationRowSource source(rel);
    EntropyOracle oracle(source);
    util::Random rng(seed * 17 + 3);
    for (int trial = 0; trial < 20; ++trial) {
      const AttributeSet y(rng.Uniform(32));
      const AttributeSet x = y.Intersect(AttributeSet(rng.Uniform(32)));
      const relation::AttributeId a =
          static_cast<relation::AttributeId>(rng.Uniform(5));
      if (y.Contains(a)) continue;
      auto hx = oracle.H(x);
      auto hxa = oracle.H(x.With(a));
      auto hy = oracle.H(y);
      auto hya = oracle.H(y.With(a));
      ASSERT_TRUE(hx.ok() && hxa.ok() && hy.ok() && hya.ok());
      EXPECT_GE((*hxa - *hx) - (*hya - *hy), -1e-12);
    }
  }
}

TEST(EntropyOracle, BitIdenticalAcrossLaneCounts) {
  const relation::Relation rel = RandomRelation(500, 6, 4, 2026);
  std::vector<AttributeSet> sets;
  for (uint64_t bits = 1; bits < 64; ++bits) sets.push_back(AttributeSet(bits));
  std::vector<double> reference;
  for (size_t threads : {1u, 2u, 4u}) {
    relation::RelationRowSource source(rel);
    EntropyOracleOptions options;
    options.threads = threads;
    EntropyOracle oracle(source, options);
    auto hs = oracle.HBatch(sets);
    ASSERT_TRUE(hs.ok());
    if (reference.empty()) {
      reference = *hs;
      continue;
    }
    for (size_t i = 0; i < sets.size(); ++i) {
      // Exact equality — the sorted-counts reduction is the contract.
      EXPECT_EQ((*hs)[i], reference[i]) << "set " << sets[i].bits()
                                        << " at " << threads << " lanes";
    }
  }
}

TEST(EntropyOracle, BatchSplitInvariance) {
  // However the queries are batched, every entropy is folded from the
  // same exact counts: one HBatch of all 31 sets is bit-equal to 31
  // single H() calls.
  const relation::Relation rel = RandomRelation(200, 5, 3, 9);
  std::vector<AttributeSet> sets;
  for (uint64_t bits = 1; bits < 32; ++bits) sets.push_back(AttributeSet(bits));
  relation::RelationRowSource batch_source(rel);
  EntropyOracle batched(batch_source);
  auto hs = batched.HBatch(sets);
  ASSERT_TRUE(hs.ok());
  relation::RelationRowSource single_source(rel);
  EntropyOracle single(single_source);
  for (size_t i = 0; i < sets.size(); ++i) {
    auto h = single.H(sets[i]);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(*h, (*hs)[i]) << "set " << sets[i].bits();
  }
  EXPECT_EQ(single.stats().sets_counted, 31u);
}

TEST(EntropyOracle, RelabelsKeysWhenTheDomainProductOverflows) {
  // Attributes of ~2000 distinct values each (about 11 bits): packing a
  // set of 6+ attributes has to relabel its partial keys to dense group
  // ids (< 4500, about 12 bits) mid-way, and a set of 11+ attributes
  // overflows again after the relabel, so the second relabel reads the
  // group ids it rewrites. A third of the rows copy an earlier row (half
  // of them with one attribute redrawn), so the wide projections keep
  // real multiplicities rather than all-distinct rows. 4500 rows span
  // several hash buckets.
  constexpr size_t kWidth = 3000;
  struct Case {
    size_t attrs;
    int min_set_size;
    double min_log2_product;  // bits the domain product must exceed
  };
  for (const Case c : {Case{8, 6, 64.0}, Case{12, 11, 128.0}}) {
    util::Random rng(2026);
    std::vector<std::string> header;
    for (size_t a = 0; a < c.attrs; ++a) {
      header.push_back("A" + std::to_string(a));
    }
    std::vector<std::vector<std::string>> data;
    for (size_t t = 0; t < 3000; ++t) {
      std::vector<std::string> row;
      for (size_t a = 0; a < c.attrs; ++a) {
        row.push_back("v" + std::to_string(rng.Uniform(kWidth)));
      }
      data.push_back(std::move(row));
    }
    for (size_t t = 0; t < 1500; ++t) {
      std::vector<std::string> row = data[rng.Uniform(data.size())];
      if (t % 2 == 0) {
        row[rng.Uniform(c.attrs)] = "v" + std::to_string(rng.Uniform(kWidth));
      }
      data.push_back(std::move(row));
    }
    const relation::Relation rel =
        limbo::testing::MakeRelation(std::move(header), data);
    double log2_product = 0.0;
    for (size_t a = 0; a < c.attrs; ++a) {
      std::set<std::string> distinct;
      for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
        distinct.insert(rel.TextAt(t, static_cast<relation::AttributeId>(a)));
      }
      log2_product += std::log2(static_cast<double>(distinct.size()));
    }
    ASSERT_GT(log2_product, c.min_log2_product);

    std::vector<AttributeSet> sets;
    for (uint64_t bits = 1; bits < (uint64_t{1} << c.attrs); ++bits) {
      if (std::popcount(bits) >= c.min_set_size) {
        sets.push_back(AttributeSet(bits));
      }
    }
    for (size_t threads : {1u, 4u}) {
      relation::RelationRowSource source(rel);
      EntropyOracleOptions options;
      options.threads = threads;
      EntropyOracle oracle(source, options);
      auto hs = oracle.HBatch(sets);
      ASSERT_TRUE(hs.ok()) << hs.status().ToString();
      for (size_t i = 0; i < sets.size(); ++i) {
        EXPECT_NEAR((*hs)[i], BruteForceEntropy(rel, sets[i]), 1e-9)
            << "set " << sets[i].bits() << " at " << threads << " lanes";
      }
    }
  }
}

TEST(EntropyOracle, ZeroRowSourceHasZeroEntropy) {
  auto source = relation::CsvStringSource::Open("A,B,C\n");
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  EntropyOracle oracle(*source);
  auto hs = oracle.HBatch({AttributeSet::Single(0), AttributeSet(0b101),
                           AttributeSet::Full(3)});
  ASSERT_TRUE(hs.ok()) << hs.status().ToString();
  for (double h : *hs) EXPECT_EQ(h, 0.0);
  EXPECT_EQ(oracle.num_rows(), 0u);
  EXPECT_EQ(oracle.stats().passes, 1u);
  EXPECT_EQ(oracle.stats().sets_counted, 3u);
}

TEST(EntropyOracle, LoadsTheSourceExactlyOnce) {
  const relation::Relation rel = RandomRelation(300, 5, 4, 13);
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  // Nothing counted yet: the empty set and the memo never touch rows.
  ASSERT_TRUE(oracle.H(AttributeSet()).ok());
  EXPECT_EQ(oracle.stats().passes, 0u);
  EXPECT_EQ(oracle.num_rows(), 0u);
  std::vector<AttributeSet> sets;
  for (uint64_t bits = 1; bits < 32; ++bits) {
    sets.push_back(AttributeSet(bits));
    ASSERT_TRUE(oracle.HBatch(sets).ok());
  }
  ASSERT_TRUE(oracle.H(AttributeSet::Full(5)).ok());
  EXPECT_EQ(oracle.stats().passes, 1u);
  EXPECT_EQ(oracle.stats().rows_read, 300u);
  EXPECT_EQ(oracle.num_rows(), 300u);
  EXPECT_EQ(oracle.stats().sets_counted, 31u);
}

TEST(EntropyOracle, MemoAbsorbsRepeatQueries) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  const AttributeSet x = AttributeSet::Single(0);
  ASSERT_TRUE(oracle.H(x).ok());
  const uint64_t passes = oracle.stats().passes;
  ASSERT_TRUE(oracle.H(x).ok());
  EXPECT_EQ(oracle.stats().passes, passes);
  EXPECT_GE(oracle.stats().memo_hits, 1u);
}

TEST(EntropyOracle, BatchDeduplicatesAndPreservesOrder) {
  const relation::Relation rel = limbo::testing::PaperFigure4();
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  const AttributeSet a = AttributeSet::Single(0);
  const AttributeSet b = AttributeSet::Single(1);
  auto hs = oracle.HBatch({a, b, a, AttributeSet(), b});
  ASSERT_TRUE(hs.ok());
  ASSERT_EQ(hs->size(), 5u);
  EXPECT_EQ((*hs)[0], (*hs)[2]);
  EXPECT_EQ((*hs)[1], (*hs)[4]);
  EXPECT_EQ((*hs)[3], 0.0);
  EXPECT_EQ(oracle.stats().sets_counted, 2u);
}

TEST(EntropyOracle, RejectsOutOfRangeAttributes) {
  const relation::Relation rel = limbo::testing::PaperFigure4();  // 3 attrs
  relation::RelationRowSource source(rel);
  EntropyOracle oracle(source);
  EXPECT_FALSE(oracle.H(AttributeSet::Single(7)).ok());
}

}  // namespace
}  // namespace limbo::schemes
