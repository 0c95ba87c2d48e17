// The parallel portfolio explorer is an *exact* method: whatever the thread
// count, the front must be point-for-point identical to the sequential
// explorer's.  These tests enforce that for every synth fixture at 1, 2 and
// 4 workers, and check that the aggregated ExploreStats are internally
// consistent with the per-worker reports.
#include "dse/parallel_explorer.hpp"

#include <gtest/gtest.h>

#include "dse/explorer.hpp"
#include "synth_fixtures.hpp"
#include "synth/validator.hpp"

namespace aspmt::dse {
namespace {

struct Fixture {
  const char* name;
  synth::Specification spec;
};

std::vector<Fixture> fixtures() {
  std::vector<Fixture> f;
  f.push_back({"singleton", test::singleton()});
  f.push_back({"two_proc_bus", test::two_proc_bus()});
  f.push_back({"chain3_bus", test::chain3_bus()});
  f.push_back({"diamond_two_proc", test::diamond_two_proc()});
  return f;
}

TEST(ParallelExplorer, FrontMatchesSequentialAtEveryThreadCount) {
  for (const Fixture& f : fixtures()) {
    const ExploreResult seq = explore(f.spec);
    ASSERT_TRUE(seq.stats.complete) << f.name;
    test::expect_front_shape(f.spec, seq);
    for (const std::size_t threads : {1U, 2U, 4U}) {
      ParallelExploreOptions opts;
      opts.threads = threads;
      const ParallelExploreResult par = explore_parallel(f.spec, opts);
      ASSERT_TRUE(par.base.stats.complete) << f.name << " @" << threads;
      test::expect_front_shape(f.spec, par.base);
      EXPECT_EQ(par.base.front, seq.front) << f.name << " @" << threads;
    }
  }
}

TEST(ParallelExplorer, WitnessesValidateAndMatchTheFront) {
  for (const Fixture& f : fixtures()) {
    ParallelExploreOptions opts;
    opts.threads = 4;
    const ParallelExploreResult r = explore_parallel(f.spec, opts);
    ASSERT_TRUE(r.base.stats.complete) << f.name;
    test::expect_front_shape(f.spec, r.base);
    ASSERT_EQ(r.base.witnesses.size(), r.base.front.size()) << f.name;
    for (std::size_t i = 0; i < r.base.front.size(); ++i) {
      EXPECT_EQ(synth::validate_implementation(f.spec, r.base.witnesses[i]), "")
          << f.name;
      EXPECT_EQ(r.base.witnesses[i].objectives(), r.base.front[i]) << f.name;
    }
  }
}

TEST(ParallelExplorer, StatsAreInternallyConsistent) {
  for (const Fixture& f : fixtures()) {
    for (const std::size_t threads : {1U, 2U, 4U}) {
      ParallelExploreOptions opts;
      opts.threads = threads;
      const ParallelExploreResult r = explore_parallel(f.spec, opts);
      ASSERT_TRUE(r.base.stats.complete) << f.name << " @" << threads;
      test::expect_front_shape(f.spec, r.base);
      ASSERT_EQ(r.workers.size(), threads) << f.name;

      std::uint64_t models = 0;
      std::uint64_t inserts = 0;
      std::uint64_t prunings = 0;
      bool someone_proved = false;
      for (const WorkerReport& w : r.workers) {
        // Every accepted model was either published or beaten by a peer.
        EXPECT_EQ(w.shared_inserts + w.rejected_inserts, w.models)
            << f.name << " worker " << w.worker;
        EXPECT_LE(w.slice_models, w.models) << f.name;
        models += w.models;
        inserts += w.shared_inserts;
        prunings += w.prunings;
        someone_proved = someone_proved || w.proved_complete;
      }
      EXPECT_TRUE(someone_proved) << f.name << " @" << threads;
      EXPECT_EQ(r.base.stats.models, models) << f.name << " @" << threads;
      EXPECT_EQ(r.base.stats.prunings, prunings) << f.name << " @" << threads;
      // Each front point entered the shared archive exactly once; evicted
      // interim points account for the rest.
      EXPECT_GE(inserts, r.base.front.size()) << f.name << " @" << threads;
      EXPECT_GE(r.base.stats.models, r.base.front.size()) << f.name << " @" << threads;
      EXPECT_EQ(r.base.discoveries.size(), inserts) << f.name << " @" << threads;
    }
  }
}

TEST(ParallelExplorer, RepeatedRunsReturnTheSameFront) {
  const synth::Specification spec = test::chain3_bus();
  ParallelExploreOptions opts;
  opts.threads = 4;
  const ParallelExploreResult a = explore_parallel(spec, opts);
  const ParallelExploreResult b = explore_parallel(spec, opts);
  ASSERT_TRUE(a.base.stats.complete && b.base.stats.complete);
  test::expect_front_shape(spec, a.base);
  test::expect_front_shape(spec, b.base);
  EXPECT_EQ(a.base.front, b.base.front);
}

TEST(ParallelExplorer, SeedChangesTrajectoryNotTheFront) {
  const synth::Specification spec = test::diamond_two_proc();
  ParallelExploreOptions a;
  a.threads = 2;
  a.seed = 1;
  ParallelExploreOptions b;
  b.threads = 2;
  b.seed = 424242;
  const ParallelExploreResult ra = explore_parallel(spec, a);
  const ParallelExploreResult rb = explore_parallel(spec, b);
  ASSERT_TRUE(ra.base.stats.complete && rb.base.stats.complete);
  test::expect_front_shape(spec, ra.base);
  test::expect_front_shape(spec, rb.base);
  EXPECT_EQ(ra.base.front, rb.base.front);
}

TEST(ParallelExplorer, TimeoutReportsIncomplete) {
  const synth::Specification spec = test::diamond_two_proc();
  ParallelExploreOptions opts;
  opts.threads = 2;
  opts.common.time_limit_seconds = 1e-9;
  const ParallelExploreResult r = explore_parallel(spec, opts);
  EXPECT_FALSE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
}

TEST(ParallelExplorer, LinearArchiveKindAgrees) {
  const synth::Specification spec = test::chain3_bus();
  ParallelExploreOptions lin;
  lin.threads = 2;
  lin.common.archive_kind = "linear";
  const ParallelExploreResult a = explore_parallel(spec, lin);
  const ExploreResult seq = explore(spec);
  ASSERT_TRUE(a.base.stats.complete && seq.stats.complete);
  test::expect_front_shape(spec, a.base);
  test::expect_front_shape(spec, seq);
  EXPECT_EQ(a.base.front, seq.front);
}

TEST(ParallelExplorer, InfeasibleSpecYieldsEmptyCompleteFront) {
  synth::Specification spec = test::two_proc_bus();
  spec.latency_bound = 1;  // nothing fits under a 1-cycle deadline
  ParallelExploreOptions opts;
  opts.threads = 2;
  const ParallelExploreResult r = explore_parallel(spec, opts);
  EXPECT_TRUE(r.base.stats.complete);
  EXPECT_TRUE(r.base.front.empty());
  test::expect_front_shape(spec, r.base);
}

}  // namespace
}  // namespace aspmt::dse
