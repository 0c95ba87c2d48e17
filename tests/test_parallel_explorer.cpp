// The parallel portfolio explorer is an *exact* method: whatever the thread
// count, the front must be point-for-point identical to the sequential
// explorer's.  These tests enforce that for every synth fixture at 1, 2 and
// 4 workers, and check that the aggregated ExploreStats are internally
// consistent with the per-worker reports.  The workers' learnt-clause pool
// is checked on its own and on a ladder rung where the exchange carries
// real traffic.
#include "dse/parallel_explorer.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "dse/clause_pool.hpp"
#include "dse/explorer.hpp"
#include "gen/generator.hpp"
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
        // No worker takes a slice: every one searches the whole problem.
        EXPECT_EQ(w.slices_claimed, 0U) << f.name;
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

// An uncertified portfolio hands short learnt clauses between its workers;
// the front stays the one-thread front.  A certified one exchanges nothing:
// an imported clause is not RUP in the importer's own proof stream.
TEST(ParallelExplorer, ExchangedClausesReachPeersAndKeepTheFront) {
  gen::GeneratorConfig c;  // the S06 ladder rung
  c.seed = 106;
  c.tasks = 8;
  c.layers = 4;
  c.architecture = gen::Architecture::SharedBus;
  c.options_per_task = 3;
  c.bus_processors = 4;
  const synth::Specification spec = gen::generate(c);
  ParallelExploreOptions opts;
  opts.threads = 1;
  const ParallelExploreResult one = explore_parallel(spec, opts);
  ASSERT_TRUE(one.base.stats.complete);
  EXPECT_EQ(one.base.stats.clauses_imported, 0U);
  EXPECT_EQ(one.workers[0].clauses_exported, 0U);

  opts.threads = 4;
  const ParallelExploreResult four = explore_parallel(spec, opts);
  ASSERT_TRUE(four.base.stats.complete);
  test::expect_front_shape(spec, four.base);
  EXPECT_EQ(four.base.front, one.base.front);
  std::uint64_t exported = 0;
  std::uint64_t imported = 0;
  for (const WorkerReport& w : four.workers) {
    exported += w.clauses_exported;
    imported += w.clauses_imported;
  }
  EXPECT_GT(exported, 0U);
  EXPECT_GT(imported, 0U);
  EXPECT_EQ(four.base.stats.clauses_imported, imported);

  opts.common.certify = true;
  const ParallelExploreResult cert = explore_parallel(spec, opts);
  ASSERT_TRUE(cert.base.stats.complete);
  EXPECT_TRUE(cert.base.certified) << cert.base.certificate_error;
  EXPECT_EQ(cert.base.front, one.base.front);
  EXPECT_EQ(cert.base.stats.clauses_imported, 0U);
  for (const WorkerReport& w : cert.workers) {
    EXPECT_EQ(w.clauses_exported, 0U) << "worker " << w.worker;
    EXPECT_EQ(w.clauses_imported, 0U) << "worker " << w.worker;
  }
}

std::vector<asp::Lit> positive_lits(asp::Var first, std::size_t count) {
  std::vector<asp::Lit> lits;
  for (std::size_t i = 0; i < count; ++i) {
    lits.push_back(asp::Lit::make(first + static_cast<asp::Var>(i), true));
  }
  return lits;
}

// The pool delivers a clause only when it is short, has a low LBD and lies
// over the shared encoding, and only to the exporter's peers.
TEST(ClausePool, DeliversShortLowLbdEncodingClausesToPeersOnly) {
  ClausePool pool(3);
  ClausePool::Port a(pool, 0);
  ClausePool::Port b(pool, 1);
  ClausePool::Port c(pool, 2);
  for (ClausePool::Port* p : {&a, &b, &c}) p->set_var_bound(100);

  a.offer(positive_lits(1, 3), 3);                       // delivered
  a.offer(positive_lits(99, 2), 2);                      // variable 100
  a.offer(positive_lits(1, 2), ClausePool::kMaxLbd + 1);
  a.offer(positive_lits(1, ClausePool::kMaxSize + 1), 2);
  a.offer(positive_lits(10, ClausePool::kMaxSize), ClausePool::kMaxLbd);
  b.offer(positive_lits(7, 1), 1);  // a unit
  EXPECT_EQ(a.exported(), 2U);
  EXPECT_EQ(b.exported(), 1U);

  std::vector<asp::SharedClause> got;
  a.receive(got);  // never its own clauses back
  ASSERT_EQ(got.size(), 1U);
  EXPECT_EQ(got[0].lits, positive_lits(7, 1));
  EXPECT_EQ(got[0].lbd, 1U);

  got.clear();
  b.receive(got);
  ASSERT_EQ(got.size(), 2U);
  EXPECT_EQ(got[0].lits, positive_lits(1, 3));
  EXPECT_EQ(got[0].lbd, 3U);
  EXPECT_EQ(got[1].lits, positive_lits(10, ClausePool::kMaxSize));

  got.clear();
  c.receive(got);
  EXPECT_EQ(got.size(), 3U);
  got.clear();
  c.receive(got);  // each clause is delivered once
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(a.imported(), 1U);
  EXPECT_EQ(b.imported(), 2U);
  EXPECT_EQ(c.imported(), 3U);

  // A port whose bound is not set yet admits nothing.
  ClausePool::Port unbound(pool, 2);
  unbound.offer(positive_lits(0, 1), 1);
  EXPECT_EQ(unbound.exported(), 0U);
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
