#include "dse/explorer.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "dse/baselines.hpp"
#include "dse/distributed.hpp"
#include "dse/parallel_explorer.hpp"
#include "obs/recorder.hpp"
#include "synth/specio.hpp"
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

// An invalid specification is refused before any worker starts, at every
// thread count and in the distributed coordinator, with validate()'s
// diagnostic — never explored into a front that means nothing.  Each edit
// of bus_small parses; the builders check only ids, so a Debug and a
// Release build give the same verdict.
TEST(Explorer, InvalidSpecificationIsRejected) {
  const struct {
    std::string text;
    const char* why;
  } cases[] = {
      {test::negative_energy_spec_text(), "negative energy"},
      {test::edited_bus_small_text("map a0t0 p2 wcet=6 energy=9",
                                   "map a0t0 p2 wcet=0 energy=9"),
       "non-positive WCET"},
      {test::edited_bus_small_text("link p0 bus", "link p0 p0"),
       "link from resource 'p0' to itself"},
      {test::self_message_spec_text(), "message 'm0' goes from a task to itself"},
  };
  for (const auto& c : cases) {
    const synth::Specification spec = synth::parse_specification(c.text);
    EXPECT_NE(spec.validate().find(c.why), std::string::npos)
        << c.why << ": " << spec.validate();
    const auto expect_rejected = [&](const auto& run, const std::string& what) {
      try {
        run();
        ADD_FAILURE() << what << ": explored an invalid specification";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.why), std::string::npos)
            << what << ": " << e.what();
      }
    };
    expect_rejected([&] { (void)explore(spec); }, "explore");
    for (const std::size_t threads : {1U, 4U}) {
      ParallelExploreOptions opts;
      opts.threads = threads;
      expect_rejected([&] { (void)explore_parallel(spec, opts); },
                      "threads " + std::to_string(threads));
    }
    DistributedOptions dist;
    dist.worker_path = ASPMT_DSE_BIN;
    expect_rejected([&] { (void)explore_distributed(spec, dist); },
                    "distributed");
  }
}

// Every worker's run wires its solver's stop token, monitor, recorder and
// clause exchange itself; a caller's value would be silently replaced, so
// each entry point refuses it by name before any worker starts.  A run is
// cancelled through CommonOptions::budget and observed through its sink.
TEST(Explorer, SolverWiringTheRunOwnsIsRefused) {
  struct NullMonitor final : asp::SearchMonitor {
    void poll(const asp::SolverStats&) override {}
  };
  struct NullExchange final : asp::ClauseExchange {
    void offer(std::span<const asp::Lit>, std::uint32_t) override {}
    void receive(std::vector<asp::SharedClause>&) override {}
  };
  const std::atomic<bool> stop{false};
  NullMonitor monitor;
  obs::Recorder recorder(0, obs::Recorder::Clock::now(), 8);
  NullExchange exchange;
  const struct {
    const char* field;
    std::function<void(asp::SolverOptions&)> set;
  } cases[] = {
      {"solver_options.stop", [&](asp::SolverOptions& o) { o.stop = &stop; }},
      {"solver_options.monitor",
       [&](asp::SolverOptions& o) { o.monitor = &monitor; }},
      {"solver_options.recorder",
       [&](asp::SolverOptions& o) { o.recorder = &recorder; }},
      {"solver_options.exchange",
       [&](asp::SolverOptions& o) { o.exchange = &exchange; }},
  };
  const synth::Specification spec = test::chain3_bus();
  for (const auto& c : cases) {
    const auto expect_refused = [&](const auto& run, const std::string& what) {
      try {
        run();
        ADD_FAILURE() << what << ": ran with " << c.field << " set";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
            << what << ": " << e.what();
      }
    };
    ExploreOptions seq;
    c.set(seq.common.solver_options);
    expect_refused([&] { (void)explore(spec, seq); }, "explore");
    for (const std::size_t threads : {1U, 4U}) {
      ParallelExploreOptions par;
      par.threads = threads;
      c.set(par.common.solver_options);
      expect_refused([&] { (void)explore_parallel(spec, par); },
                     "threads " + std::to_string(threads));
    }
    DistributedOptions dist;
    dist.worker_path = ASPMT_DSE_BIN;
    c.set(dist.base.common.solver_options);
    expect_refused([&] { (void)explore_distributed(spec, dist); },
                   "distributed");
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

TEST(WitnessEnumeration, PointOfTheWrongLengthThrows) {
  // One entry short of the three axes: a checked error, never a read past
  // the end of the point.
  EXPECT_THROW((void)enumerate_witnesses(test::chain3_bus(), {1, 2}),
               std::invalid_argument);
}

TEST(WitnessEnumeration, NonOptimalPointThrows) {
  // A point every front point strictly dominates: the bounds f <= p admit
  // strictly better implementations, which must not be passed off as
  // witnesses of p.
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult r = explore(spec);
  ASSERT_TRUE(r.stats.complete);
  pareto::Vec worse = r.front.front();
  for (std::int64_t& v : worse) v += 1000;
  EXPECT_THROW((void)enumerate_witnesses(spec, worse), std::invalid_argument);
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
