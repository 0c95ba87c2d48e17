#include "dse/explorer.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "dse/baselines.hpp"
#include "synth_fixtures.hpp"
#include "synth/validator.hpp"

namespace aspmt::dse {
namespace {

TEST(Explorer, SingletonFrontIsTheOnlyPoint) {
  const synth::Specification spec = test::singleton();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  ASSERT_EQ(r.front.size(), 1U);
  EXPECT_EQ(r.front[0], (pareto::Vec{4, 2, 3}));
}

TEST(Explorer, TwoProcFrontMatchesEnumeration) {
  const synth::Specification spec = test::two_proc_bus();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  const BaselineResult b = enumerate_and_filter(spec);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(r.front, b.front);
  EXPECT_GE(r.front.size(), 2U);  // heterogeneity must create a trade-off
}

TEST(Explorer, WitnessesAreFeasibleAndMatchFront) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  ASSERT_EQ(r.witnesses.size(), r.front.size());
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    EXPECT_EQ(synth::validate_implementation(spec, r.witnesses[i]), "");
    EXPECT_EQ(r.witnesses[i].objectives(), r.front[i]);
  }
}

TEST(Explorer, FrontIsMutuallyNonDominated) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult r = explore(spec);
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    for (std::size_t j = 0; j < r.front.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(pareto::weakly_dominates(r.front[i], r.front[j]))
          << pareto::to_string(r.front[i]) << " vs "
          << pareto::to_string(r.front[j]);
    }
  }
}

TEST(Explorer, ChainFrontMatchesEnumeration) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult r = explore(spec);
  const BaselineResult b = enumerate_and_filter(spec);
  ASSERT_TRUE(r.stats.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(r.front, b.front);
}

TEST(Explorer, DiamondFrontMatchesEnumeration) {
  const synth::Specification spec = test::diamond_two_proc();
  const ExploreResult r = explore(spec);
  const BaselineResult b = enumerate_and_filter(spec, /*time_limit=*/120.0);
  ASSERT_TRUE(r.stats.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(r.front, b.front);
}

TEST(Explorer, ArchiveKindsAgree) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions quad;
  quad.common.archive_kind = "quadtree";
  ExploreOptions lin;
  lin.common.archive_kind = "linear";
  const ExploreResult r1 = explore(spec, quad);
  const ExploreResult r2 = explore(spec, lin);
  EXPECT_EQ(r1.front, r2.front);
  EXPECT_TRUE(r1.stats.complete && r2.stats.complete);
}

TEST(Explorer, PartialEvaluationAblationSameFront) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions off;
  off.common.partial_evaluation = false;
  const ExploreResult with_pe = explore(spec);
  const ExploreResult without_pe = explore(spec, off);
  ASSERT_TRUE(with_pe.stats.complete && without_pe.stats.complete);
  EXPECT_EQ(with_pe.front, without_pe.front);
}

TEST(Explorer, FloorsOffSameFront) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions no_floors;
  no_floors.common.objective_floors = false;
  const ExploreResult with_floors = explore(spec);
  const ExploreResult without_floors = explore(spec, no_floors);
  ASSERT_TRUE(with_floors.stats.complete && without_floors.stats.complete);
  EXPECT_EQ(with_floors.front, without_floors.front);
}

TEST(Explorer, DrillDownOffSameFront) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions no_drill;
  no_drill.common.drill_down = false;
  const ExploreResult with_drill = explore(spec);
  const ExploreResult without_drill = explore(spec, no_drill);
  ASSERT_TRUE(with_drill.stats.complete && without_drill.stats.complete);
  EXPECT_EQ(with_drill.front, without_drill.front);
}

TEST(Explorer, EpsilonZeroMatchesExact) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions eps0;
  eps0.epsilon = pareto::Vec{0, 0, 0};
  const ExploreResult exact = explore(spec);
  const ExploreResult approx = explore(spec, eps0);
  ASSERT_TRUE(exact.stats.complete && approx.stats.complete);
  EXPECT_EQ(exact.front, approx.front);
}

TEST(Explorer, EpsilonCoversTheExactFront) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult exact = explore(spec);
  ASSERT_TRUE(exact.stats.complete);
  ExploreOptions opts;
  opts.epsilon = pareto::Vec{2, 6, 3};
  const ExploreResult approx = explore(spec, opts);
  ASSERT_TRUE(approx.stats.complete);
  EXPECT_LE(approx.front.size(), exact.front.size());
  for (const auto& q : exact.front) {
    bool covered = false;
    for (const auto& p : approx.front) {
      bool le = true;
      for (std::size_t o = 0; o < 3; ++o) {
        if (p[o] > q[o] + opts.epsilon[o]) le = false;
      }
      covered = covered || le;
    }
    EXPECT_TRUE(covered) << pareto::to_string(q);
  }
}

TEST(Explorer, EpsilonOfTheWrongLengthThrows) {
  const synth::Specification spec = test::chain3_bus();  // three axes
  for (const pareto::Vec& eps : {pareto::Vec{1, 1, 1, 1}, pareto::Vec{3, 10}}) {
    ExploreOptions opts;
    opts.epsilon = eps;
    EXPECT_THROW((void)explore(spec, opts), std::invalid_argument)
        << pareto::to_string(eps);
  }
}

TEST(Explorer, HugeEpsilonReturnsSinglePoint) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions opts;
  opts.epsilon = pareto::Vec{1000000, 1000000, 1000000};
  const ExploreResult r = explore(spec, opts);
  ASSERT_TRUE(r.stats.complete);
  // With drill-down the single survivor is still a true Pareto point.
  EXPECT_EQ(r.front.size(), 1U);
  const ExploreResult exact = explore(spec);
  EXPECT_NE(std::find(exact.front.begin(), exact.front.end(), r.front[0]),
            exact.front.end());
}

TEST(Explorer, EveryModelEntersTheArchive) {
  // With dominance propagation, no accepted model may be dominated, so the
  // number of accepted models >= |front| and every front point stems from a
  // model.
  const synth::Specification spec = test::two_proc_bus();
  const ExploreResult r = explore(spec);
  EXPECT_GE(r.stats.models, r.front.size());
}

TEST(WitnessEnumeration, AllWitnessesValidateAndHitThePoint) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  for (const auto& p : r.front) {
    const WitnessEnumeration w = enumerate_witnesses(spec, p);
    ASSERT_TRUE(w.complete);
    ASSERT_FALSE(w.implementations.empty());
    for (const auto& impl : w.implementations) {
      EXPECT_EQ(synth::validate_implementation(spec, impl), "");
      EXPECT_EQ(impl.objectives(), p);
    }
  }
}

TEST(WitnessEnumeration, CountsMatchFullEnumeration) {
  const synth::Specification spec = test::two_proc_bus();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  // Cross-check witness counts against the enumerate-everything baseline.
  std::size_t total_models = 0;
  {
    const BaselineResult all = enumerate_and_filter(spec);
    ASSERT_TRUE(all.complete);
    total_models = all.models;
  }
  std::size_t sum = 0;
  for (const auto& p : r.front) {
    const WitnessEnumeration w = enumerate_witnesses(spec, p);
    ASSERT_TRUE(w.complete);
    sum += w.implementations.size();
  }
  // Every implementation hits exactly one objective vector; front vectors
  // are a subset of all vectors, so front witnesses <= all implementations.
  EXPECT_LE(sum, total_models);
  EXPECT_GE(sum, r.front.size());
}

TEST(WitnessEnumeration, LimitShortCircuits) {
  const synth::Specification spec = test::diamond_two_proc();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  const WitnessEnumeration w = enumerate_witnesses(spec, r.front.front(), 1);
  EXPECT_EQ(w.implementations.size(), 1U);
}

TEST(Explorer, TimeoutReportsIncomplete) {
  const synth::Specification spec = test::diamond_two_proc();
  ExploreOptions opts;
  opts.common.time_limit_seconds = 1e-9;
  const ExploreResult r = explore(spec, opts);
  EXPECT_FALSE(r.stats.complete);
}

TEST(Explorer, StatsPopulated) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult r = explore(spec);
  EXPECT_GT(r.stats.models, 0U);
  EXPECT_GT(r.stats.decisions, 0U);
  EXPECT_GT(r.stats.seconds, 0.0);
  EXPECT_GT(r.stats.prunings, 0U);
}

}  // namespace
}  // namespace aspmt::dse
