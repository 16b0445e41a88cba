#include "fd/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::fd {
namespace {

using limbo::testing::MakeRelation;

TEST(StrippedPartitionTest, SingleAttributeStripsSingletons) {
  const auto rel =
      MakeRelation({"A"}, {{"x"}, {"y"}, {"x"}, {"z"}, {"x"}, {"y"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  // Classes: {0,2,4} (x), {1,5} (y); z is a singleton and stripped.
  EXPECT_EQ(p.NumClasses(), 2u);
  EXPECT_EQ(p.CoveredTuples(), 5u);
  EXPECT_EQ(p.Rank(), 3u);  // covered - classes = n - |π_full| = 6 - 3
  EXPECT_FALSE(p.IsSuperkey());
}

TEST(StrippedPartitionTest, KeyAttributeIsSuperkey) {
  const auto rel = MakeRelation({"A"}, {{"1"}, {"2"}, {"3"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  EXPECT_TRUE(p.IsSuperkey());
  EXPECT_EQ(p.Rank(), 0u);
}

TEST(StrippedPartitionTest, ConstantAttributeOneClass) {
  const auto rel = MakeRelation({"A"}, {{"c"}, {"c"}, {"c"}});
  const auto p = StrippedPartition::ForAttribute(rel, 0);
  EXPECT_EQ(p.NumClasses(), 1u);
  EXPECT_EQ(p.Rank(), 2u);  // n - 1
}

TEST(StrippedPartitionTest, ProductRefines) {
  const auto rel = MakeRelation({"A", "B"}, {{"x", "1"},
                                             {"x", "1"},
                                             {"x", "2"},
                                             {"y", "1"},
                                             {"y", "1"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto pab = StrippedPartition::Product(pa, pb, n);
  // π_{A,B} classes: {0,1} (x1), {3,4} (y1); (x,2) is singleton.
  EXPECT_EQ(pab.NumClasses(), 2u);
  EXPECT_EQ(pab.CoveredTuples(), 4u);
  EXPECT_EQ(pab.Rank(), 2u);
}

TEST(StrippedPartitionTest, ProductIsCommutativeInRank) {
  const auto rel = MakeRelation(
      {"A", "B"},
      {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "2"}, {"x", "1"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto ab = StrippedPartition::Product(pa, pb, n);
  const auto ba = StrippedPartition::Product(pb, pa, n);
  EXPECT_EQ(ab.Rank(), ba.Rank());
  EXPECT_EQ(ab.NumClasses(), ba.NumClasses());
}

TEST(StrippedPartitionTest, FdDetectionViaRank) {
  // A -> B holds: every A-class agrees on B.
  const auto rel = MakeRelation(
      {"A", "B"}, {{"x", "1"}, {"x", "1"}, {"y", "2"}, {"y", "2"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pb = StrippedPartition::ForAttribute(rel, 1);
  const auto pab = StrippedPartition::Product(pa, pb, n);
  EXPECT_EQ(pa.Rank(), pab.Rank());   // A -> B
  EXPECT_EQ(pb.Rank(), pab.Rank());   // B -> A (also holds here)
}

TEST(StrippedPartitionTest, FdViolationChangesRank) {
  const auto rel = MakeRelation(
      {"A", "B"}, {{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "1"}});
  const size_t n = rel.NumTuples();
  const auto pa = StrippedPartition::ForAttribute(rel, 0);
  const auto pab = StrippedPartition::Product(
      pa, StrippedPartition::ForAttribute(rel, 1), n);
  EXPECT_NE(pa.Rank(), pab.Rank());  // A -> B fails on x
}

using Classes = std::vector<std::vector<relation::TupleId>>;

Classes ClassesOf(const StrippedPartition& p) {
  Classes out;
  for (size_t c = 0; c < p.NumClasses(); ++c) {
    out.emplace_back(p.Class(c).begin(), p.Class(c).end());
  }
  return out;
}

relation::Relation RandomRelation(util::Random& rng, size_t n,
                                  const std::vector<size_t>& domains) {
  std::vector<std::string> header;
  for (size_t a = 0; a < domains.size(); ++a) {
    header.push_back("A" + std::to_string(a));
  }
  std::vector<std::vector<std::string>> rows(n);
  for (auto& row : rows) {
    for (size_t domain : domains) {
      row.push_back("v" + std::to_string(rng.Uniform(domain)));
    }
  }
  return MakeRelation(header, rows);
}

/// Product(a, b) by brute force: walk b's classes in order and split each
/// by the tuples' values on `a_attrs`, keeping the groups of >= 2 tuples
/// in first-seen order with their tuples in b-class order.
Classes BruteForceProduct(const relation::Relation& rel,
                          const std::vector<relation::AttributeId>& a_attrs,
                          const Classes& b_classes) {
  Classes out;
  for (const auto& cls : b_classes) {
    std::map<std::vector<relation::ValueId>, size_t> group_of;
    Classes groups;
    for (relation::TupleId t : cls) {
      std::vector<relation::ValueId> key;
      for (relation::AttributeId a : a_attrs) key.push_back(rel.At(t, a));
      const auto [it, fresh] = group_of.emplace(key, groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(t);
    }
    for (auto& g : groups) {
      if (g.size() >= 2) out.push_back(std::move(g));
    }
  }
  return out;
}

/// The stripped partition of `rel` under `attrs`, as a sorted set of
/// classes: an order-free check of Product's grouping itself.
Classes SortedBruteForcePartition(
    const relation::Relation& rel,
    const std::vector<relation::AttributeId>& attrs) {
  std::map<std::vector<relation::ValueId>, std::vector<relation::TupleId>>
      groups;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    std::vector<relation::ValueId> key;
    for (relation::AttributeId a : attrs) key.push_back(rel.At(t, a));
    groups[key].push_back(t);
  }
  Classes out;
  for (auto& [key, tuples] : groups) {
    if (tuples.size() >= 2) out.push_back(std::move(tuples));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectProductMatches(const relation::Relation& rel,
                          const std::vector<relation::AttributeId>& a_attrs,
                          const StrippedPartition& b,
                          const std::vector<relation::AttributeId>& b_attrs,
                          const StrippedPartition& product) {
  const Classes expected = BruteForceProduct(rel, a_attrs, ClassesOf(b));
  EXPECT_EQ(ClassesOf(product), expected);
  size_t covered = 0;
  for (const auto& cls : expected) covered += cls.size();
  EXPECT_EQ(product.CoveredTuples(), covered);
  EXPECT_EQ(product.Rank(), covered - expected.size());
  std::vector<relation::AttributeId> both = a_attrs;
  both.insert(both.end(), b_attrs.begin(), b_attrs.end());
  Classes sorted = ClassesOf(product);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, SortedBruteForcePartition(rel, both));
}

// Product reuses its probe table and per-class counters across calls on
// the same thread. Products over relations of different sizes and class
// counts run back to back here, larger before smaller and sparse before
// dense, so an entry one product leaves behind corrupts the next.
TEST(StrippedPartitionTest, BackToBackProductsMatchBruteForce) {
  util::Random rng(13);
  struct Shape {
    size_t n;
    std::vector<size_t> domains;
  };
  const std::vector<Shape> shapes = {
      {2000, {40, 3, 200, 7}}, {9, {2, 3, 2, 4}},     {600, {5, 5, 5, 5}},
      {3000, {2, 900, 11, 60}}, {1, {1, 1, 1, 1}},    {40, {40, 2, 1, 6}},
      {1500, {300, 300, 2, 9}}, {250, {3, 2, 50, 4}}, {5000, {70, 4, 8, 2}},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("n=" + std::to_string(shape.n));
    const relation::Relation rel = RandomRelation(rng, shape.n, shape.domains);
    const size_t n = rel.NumTuples();
    std::vector<StrippedPartition> single;
    for (relation::AttributeId a = 0; a < 4; ++a) {
      single.push_back(StrippedPartition::ForAttribute(rel, a));
      // Classes ordered by first tuple, tuples ascending: already sorted.
      EXPECT_EQ(ClassesOf(single.back()), SortedBruteForcePartition(rel, {a}));
    }
    for (relation::AttributeId x = 0; x < 4; ++x) {
      for (relation::AttributeId y = 0; y < 4; ++y) {
        if (x == y) continue;
        const auto xy = StrippedPartition::Product(single[x], single[y], n);
        ExpectProductMatches(rel, {x}, single[y], {y}, xy);
        // A product of products: (x, y) against the remaining attributes.
        for (relation::AttributeId z = 0; z < 4; ++z) {
          if (z == x || z == y) continue;
          const auto xyz = StrippedPartition::Product(xy, single[z], n);
          ExpectProductMatches(rel, {x, y}, single[z], {z}, xyz);
          const auto zxy = StrippedPartition::Product(single[z], xy, n);
          ExpectProductMatches(rel, {z}, xy, {x, y}, zxy);
        }
      }
    }
  }
}

}  // namespace
}  // namespace limbo::fd
