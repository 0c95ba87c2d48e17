#include "pareto/indicators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "util/rng.hpp"

namespace aspmt::pareto {
namespace {

TEST(Hypervolume, SinglePoint2d) {
  EXPECT_DOUBLE_EQ(hypervolume({{2, 3}}, {10, 10}), 8.0 * 7.0);
}

TEST(Hypervolume, EmptyFrontIsZero) {
  EXPECT_DOUBLE_EQ(hypervolume({}, {10, 10}), 0.0);
}

TEST(Hypervolume, PointBeyondReferenceClipped) {
  EXPECT_DOUBLE_EQ(hypervolume({{11, 2}}, {10, 10}), 0.0);
}

TEST(Hypervolume, TwoPoints2dUnion) {
  // (2,6) and (6,2) w.r.t. (10,10): 8*4 + 4*8 - 4*4 = 48.
  EXPECT_DOUBLE_EQ(hypervolume({{2, 6}, {6, 2}}, {10, 10}), 48.0);
}

TEST(Hypervolume, DominatedPointAddsNothing) {
  const double base = hypervolume({{2, 6}, {6, 2}}, {10, 10});
  EXPECT_DOUBLE_EQ(hypervolume({{2, 6}, {6, 2}, {7, 7}}, {10, 10}), base);
}

TEST(Hypervolume, SinglePoint3d) {
  EXPECT_DOUBLE_EQ(hypervolume({{1, 2, 3}}, {5, 5, 5}), 4.0 * 3.0 * 2.0);
}

TEST(Hypervolume, ThreeDimensionalUnion) {
  // Two cuboids overlapping: (1,1,3)->(5,5,5) and (3,3,1)->(5,5,5).
  // vol1 = 4*4*2 = 32, vol2 = 2*2*4 = 16, overlap = 2*2*2 = 8 -> 40.
  EXPECT_DOUBLE_EQ(hypervolume({{1, 1, 3}, {3, 3, 1}}, {5, 5, 5}), 40.0);
}

TEST(Hypervolume, MonotoneUnderAddedPoint) {
  util::Rng rng(4);
  std::vector<Vec> pts;
  const Vec ref{20, 20, 20};
  double prev = 0.0;
  for (int i = 0; i < 20; ++i) {
    pts.push_back(Vec{rng.range(0, 15), rng.range(0, 15), rng.range(0, 15)});
    const double hv = hypervolume(pts, ref);
    EXPECT_GE(hv, prev - 1e-9);
    prev = hv;
  }
}

// Brute-force 2D hypervolume on a grid for cross-checking.
double grid_hv_2d(const std::vector<Vec>& pts, const Vec& ref) {
  double cells = 0;
  for (std::int64_t x = 0; x < ref[0]; ++x) {
    for (std::int64_t y = 0; y < ref[1]; ++y) {
      for (const Vec& p : pts) {
        if (p[0] <= x && p[1] <= y) {
          cells += 1;
          break;
        }
      }
    }
  }
  return cells;
}

class HvRandom2d : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HvRandom2d, MatchesGridCount) {
  util::Rng rng(GetParam() * 17 + 3);
  std::vector<Vec> pts;
  const Vec ref{12, 12};
  const int n = 1 + static_cast<int>(rng.below(6));
  for (int i = 0; i < n; ++i) {
    pts.push_back(Vec{rng.range(0, 11), rng.range(0, 11)});
  }
  EXPECT_DOUBLE_EQ(hypervolume(pts, ref), grid_hv_2d(pts, ref));
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvRandom2d, ::testing::Range<std::uint64_t>(0, 20));

// A fully hand-computed three-objective pin (inclusion–exclusion):
//   A=(1,4,2): (5-1)(5-4)(5-2) = 12     A∩B at (2,4,3): 3*1*2 = 6
//   B=(2,2,3): (5-2)(5-2)(5-3) = 18     A∩C at (4,4,2): 1*1*3 = 3
//   C=(4,1,1): (5-4)(5-1)(5-1) = 16     B∩C at (4,2,3): 1*3*2 = 6
//                                       A∩B∩C at (4,4,3): 1*1*2 = 2
//   union = 12+18+16-6-3-6+2 = 33.
TEST(Hypervolume, HandComputedThreeObjectiveFront) {
  EXPECT_DOUBLE_EQ(hypervolume({{1, 4, 2}, {2, 2, 3}, {4, 1, 1}}, {5, 5, 5}),
                   33.0);
}

TEST(Epsilon, ZeroWhenCovering) {
  const std::vector<Vec> r{{1, 2}, {2, 1}};
  EXPECT_EQ(additive_epsilon(r, r), 0);
}

TEST(Epsilon, ShiftMeasured) {
  const std::vector<Vec> approx{{2, 3}};
  const std::vector<Vec> ref{{1, 2}};
  EXPECT_EQ(additive_epsilon(approx, ref), 1);
}

TEST(Epsilon, WorstReferencePointCounts) {
  const std::vector<Vec> approx{{0, 0}};
  const std::vector<Vec> ref{{0, 0}, {-3, 5}};
  // For (-3,5): max(0-(-3), 0-5) = 3.
  EXPECT_EQ(additive_epsilon(approx, ref), 3);
}

TEST(Epsilon, EmptyApproximationIsInfinite) {
  EXPECT_EQ(additive_epsilon({}, {{1, 1}}),
            std::numeric_limits<std::int64_t>::max());
}

TEST(Coverage, CountsExactHits) {
  const std::vector<Vec> exact{{1, 1}, {2, 0}, {0, 3}};
  const std::vector<Vec> approx{{1, 1}, {9, 9}};
  EXPECT_DOUBLE_EQ(coverage_ratio(approx, exact), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(coverage_ratio(exact, exact), 1.0);
  EXPECT_DOUBLE_EQ(coverage_ratio({}, exact), 0.0);
}

}  // namespace
}  // namespace aspmt::pareto
