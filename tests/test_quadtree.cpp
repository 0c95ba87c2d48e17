#include "pareto/quadtree.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "util/rng.hpp"

namespace aspmt::pareto {
namespace {

TEST(QuadTree, BasicInsertAndQuery) {
  QuadTreeArchive a(2);
  EXPECT_TRUE(a.insert({3, 3}));
  EXPECT_FALSE(a.insert({3, 3}));
  EXPECT_FALSE(a.insert({4, 3}));
  EXPECT_TRUE(a.insert({1, 5}));
  EXPECT_TRUE(a.insert({5, 1}));
  EXPECT_EQ(a.size(), 3U);
  EXPECT_NE(a.find_weak_dominator({6, 6}), nullptr);
  EXPECT_EQ(a.find_weak_dominator({0, 0}), nullptr);
}

TEST(QuadTree, EvictionSweepsEverythingDominated) {
  QuadTreeArchive a(2);
  a.insert({5, 5});
  a.insert({4, 7});
  a.insert({7, 4});
  // (3,3) dominates all three points.
  EXPECT_TRUE(a.insert({3, 3}));
  EXPECT_EQ(a.size(), 1U);
  EXPECT_EQ(a.points(), (std::vector<Vec>{{3, 3}}));
}

TEST(QuadTree, EvictionKeepsIncomparables) {
  QuadTreeArchive a(2);
  a.insert({5, 5});
  a.insert({1, 9});
  a.insert({9, 1});
  EXPECT_TRUE(a.insert({4, 4}));  // evicts (5,5) only
  EXPECT_EQ(a.size(), 3U);
  const auto pts = a.points();
  EXPECT_EQ(pts, (std::vector<Vec>{{1, 9}, {4, 4}, {9, 1}}));
}

TEST(QuadTree, RootEvictionReinsertsSurvivingSubtree) {
  QuadTreeArchive a(2);
  a.insert({5, 5});  // root
  a.insert({3, 8});
  a.insert({8, 3});
  // (4,6) evicts the root (4<=5, 6<=... no: 6 > 5!). Use (4,5): 4<=5 & 5<=5
  // dominates the root but neither flank (4>3 in obj0 vs (3,8)? weak
  // dominance of (3,8) needs 4<=3: no; of (8,3) needs 5<=3: no).
  EXPECT_TRUE(a.insert({4, 5}));
  EXPECT_EQ(a.size(), 3U);
  EXPECT_EQ(a.points(), (std::vector<Vec>{{3, 8}, {4, 5}, {8, 3}}));
}

TEST(QuadTree, ConstructorRejectsUnsupportedDimensions) {
  EXPECT_THROW(QuadTreeArchive{0}, std::invalid_argument);
  EXPECT_THROW(QuadTreeArchive{17}, std::invalid_argument);
  // 2^32 children per node does not fit the 32-bit fan-out.
  EXPECT_THROW(QuadTreeArchive{32}, std::invalid_argument);
}

TEST(QuadTree, InsertRejectsAPointOfTheWrongDimension) {
  QuadTreeArchive a(3);
  ASSERT_TRUE(a.insert({1, 2, 3}));
  EXPECT_THROW(a.insert({0, 0, 0, 0}), std::invalid_argument);
  EXPECT_THROW(a.insert({0, 0}), std::invalid_argument);
  EXPECT_EQ(a.points(), (std::vector<Vec>{{1, 2, 3}}));
}

TEST(QuadTree, ClearResets) {
  QuadTreeArchive a(3);
  a.insert({1, 2, 3});
  a.clear();
  EXPECT_EQ(a.size(), 0U);
  EXPECT_TRUE(a.insert({1, 2, 3}));
}

// Property: the quad-tree behaves exactly like the linear archive.
struct QtParam {
  std::uint64_t seed;
  std::size_t dims;
  std::int64_t range;
};

class QuadTreeEquivalence : public ::testing::TestWithParam<QtParam> {};

TEST_P(QuadTreeEquivalence, MatchesLinearArchive) {
  const auto [seed, dims, range] = GetParam();
  util::Rng rng(seed);
  QuadTreeArchive qt(dims);
  LinearArchive lin;
  for (int i = 0; i < 300; ++i) {
    Vec p;
    for (std::size_t d = 0; d < dims; ++d) p.push_back(rng.range(0, range));
    const bool a = qt.insert(p);
    const bool b = lin.insert(p);
    EXPECT_EQ(a, b) << "insert disagreement at step " << i;
    ASSERT_EQ(qt.size(), lin.size()) << "size disagreement at step " << i;
    // Random dominator queries agree on existence.
    Vec q;
    for (std::size_t d = 0; d < dims; ++d) q.push_back(rng.range(0, range));
    EXPECT_EQ(qt.find_weak_dominator(q) != nullptr,
              lin.find_weak_dominator(q) != nullptr);
  }
  EXPECT_EQ(qt.points(), lin.points());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QuadTreeEquivalence,
    ::testing::Values(QtParam{1, 2, 10}, QtParam{2, 2, 30}, QtParam{3, 3, 10},
                      QtParam{4, 3, 25}, QtParam{5, 4, 12}, QtParam{6, 4, 6},
                      QtParam{7, 3, 50}, QtParam{8, 2, 4}, QtParam{9, 1, 20},
                      QtParam{10, 3, 8}));

}  // namespace
}  // namespace aspmt::pareto
