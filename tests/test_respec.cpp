// Differential spec-mutation test layer for incremental re-exploration
// (src/dse/respec.*).
//
// The contract under test is unconditional exactness: for every checked-in
// fixture and every single-edit mutation in the catalogue
// (tests/spec_mutations.hpp), dse::reexplore from the previous session's
// checkpoint must return byte-for-byte the same front a cold run on the
// edited spec returns — certified — at 1, 2 and 4 threads.  Reuse
// (archive witnesses, guarded clause replay, slice resumption) may only
// change how fast the search gets there.  Adversarially corrupted clause
// dumps must be rejected or neutralized, degrading towards a cold start,
// never distorting the front.
#include "dse/respec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "spec_mutations.hpp"
#include "synth/objective_expr.hpp"
#include "synth_fixtures.hpp"

namespace aspmt::dse {
namespace {

// ---- helpers --------------------------------------------------------------

/// A previous session: cold-explore `spec` with a snapshot file attached and
/// load the final v3 checkpoint (sections + clause dump included) back.
Checkpoint previous_session(const synth::Specification& spec,
                            const std::string& tag) {
  const std::string path = ::testing::TempDir() + "aspmt_respec_" + tag + ".ckpt";
  ExploreOptions opts;
  opts.common.checkpoint_path = path;
  const ExploreResult r = explore(spec, opts);
  EXPECT_TRUE(r.stats.complete);
  Checkpoint c;
  EXPECT_EQ(load_checkpoint(path, c), "");
  std::remove(path.c_str());
  return c;
}

/// Cold certified reference run on a spec.
ExploreResult cold_reference(const synth::Specification& spec) {
  ExploreOptions opts;
  opts.common.certify = true;
  return explore(spec, opts);
}

ReexploreOptions incremental_options(std::size_t threads) {
  ReexploreOptions ro;
  ro.base.threads = threads;
  ro.base.seed = 7;
  ro.base.common.certify = true;
  return ro;
}

struct Fixture {
  const char* name;
  synth::Specification (*make)();
};

constexpr Fixture kFixtures[] = {
    {"two_proc_bus", &test::two_proc_bus},
    {"chain3_bus", &test::chain3_bus},
};

// ---- digest / classification units ----------------------------------------

TEST(Respec, SectionDigestsAreStableAndEditSensitive) {
  const synth::Specification base = test::two_proc_bus();
  const SectionDigests d0 = spec_sections(base);
  EXPECT_EQ(d0, spec_sections(test::two_proc_bus()));  // deterministic

  const SectionDigests d_wcet = spec_sections(test::mutate_wcet_bump(base));
  EXPECT_EQ(d_wcet.tasks, d0.tasks);
  EXPECT_EQ(d_wcet.resources, d0.resources);
  EXPECT_EQ(d_wcet.mappings, d0.mappings);
  EXPECT_NE(d_wcet.objectives, d0.objectives);

  const SectionDigests d_swap = spec_sections(test::mutate_resource_swap(base));
  EXPECT_EQ(d_swap.tasks, d0.tasks);
  EXPECT_NE(d_swap.mappings, d0.mappings);

  const SectionDigests d_add = spec_sections(test::mutate_task_add(base));
  EXPECT_NE(d_add.tasks, d0.tasks);

  const SectionDigests d_rm = spec_sections(test::mutate_task_remove(base));
  EXPECT_NE(d_rm.tasks, d0.tasks);
}

TEST(Respec, ObjectiveTreeEditsClassifyUnsafe) {
  // Declaring (or editing) combinator axes redefines the geometry of every
  // archived point, so nothing from the old session is reusable.
  const synth::Specification base = test::chain3_bus();
  const SectionDigests d0 = spec_sections(base);
  EXPECT_EQ(d0.tree, default_tree_digest());

  synth::Specification comb = test::chain3_bus();
  const std::size_t hot = comb.add_scenario("hot");
  comb.set_scenario_factor(hot, 1, 2);
  synth::ObjectiveExpr expr;
  ASSERT_EQ(synth::parse_objective_expr("lex(latency,energy@hot)", expr), "");
  comb.add_objective(std::move(expr));
  const SectionDigests d1 = spec_sections(comb);
  EXPECT_NE(d1.tree, d0.tree);
  EXPECT_EQ(d1.tasks, d0.tasks);
  EXPECT_EQ(d1.mappings, d0.mappings);

  const DeltaReport rep = classify_delta(d0, d1);
  EXPECT_TRUE(rep.tree_changed);
  EXPECT_EQ(rep.cls, DeltaClass::Unsafe);
  EXPECT_NE(rep.section_mask() & 16U, 0U);
}

TEST(Respec, CatalogueMutationsClassifyAsDocumented) {
  const synth::Specification base = test::chain3_bus();
  const SectionDigests d0 = spec_sections(base);
  std::size_t count = 0;
  const test::MutationCase* cases = test::mutation_catalogue(count);
  for (std::size_t i = 0; i < count; ++i) {
    const synth::Specification edited = cases[i].apply(base);
    ASSERT_EQ(edited.validate(), "") << cases[i].name;
    const DeltaReport rep = classify_delta(d0, spec_sections(edited));
    EXPECT_EQ(rep.cls, cases[i].expected)
        << cases[i].name << " classified " << delta_class_name(rep.cls);
  }
  const DeltaReport same = classify_delta(d0, d0);
  EXPECT_EQ(same.cls, DeltaClass::Identical);
  EXPECT_EQ(same.section_mask(), 0U);
}

TEST(Respec, LegacyCheckpointsClassifyAllOrNothing) {
  const synth::Specification spec = test::two_proc_bus();
  Checkpoint legacy;  // v1/v2: no per-section digests
  legacy.spec_fingerprint = spec_fingerprint(spec);
  legacy.has_sections = false;
  EXPECT_EQ(classify_checkpoint(legacy, spec).cls, DeltaClass::Identical);
  EXPECT_EQ(classify_checkpoint(legacy, test::mutate_wcet_bump(spec)).cls,
            DeltaClass::Unsafe);
}

// ---- the differential exactness sweep --------------------------------------

TEST(Respec, DifferentialSingleEditFrontsMatchColdAtAllThreadCounts) {
  std::size_t count = 0;
  const test::MutationCase* cases = test::mutation_catalogue(count);
  for (const Fixture& fx : kFixtures) {
    const synth::Specification base = fx.make();
    const Checkpoint prev = previous_session(base, fx.name);
    for (std::size_t i = 0; i < count; ++i) {
      const synth::Specification edited = cases[i].apply(base);
      ASSERT_EQ(edited.validate(), "") << fx.name << "/" << cases[i].name;
      const DeltaReport rep = classify_checkpoint(prev, edited);
      EXPECT_EQ(rep.cls, cases[i].expected) << fx.name << "/" << cases[i].name;

      const ExploreResult cold = cold_reference(edited);
      ASSERT_TRUE(cold.stats.complete);
      ASSERT_TRUE(cold.certified) << cold.certificate_error;

      for (const std::size_t threads : {1U, 2U, 4U}) {
        const ReexploreResult inc =
            reexplore(prev, edited, incremental_options(threads));
        ASSERT_TRUE(inc.base.stats.complete)
            << fx.name << "/" << cases[i].name << " threads " << threads;
        EXPECT_EQ(inc.base.front, cold.front)
            << fx.name << "/" << cases[i].name << " threads " << threads;
        EXPECT_TRUE(inc.base.certified)
            << fx.name << "/" << cases[i].name << " threads " << threads
            << ": " << inc.base.certificate_error;
        EXPECT_EQ(inc.reuse.delta.cls, cases[i].expected);
        EXPECT_GE(inc.reuse.reuse_rate(), 0.0);
        EXPECT_LE(inc.reuse.reuse_rate(), 1.0);
        if (cases[i].expected == DeltaClass::Unsafe) {
          EXPECT_TRUE(inc.reuse.cold_start);
          EXPECT_EQ(inc.reuse.archive_reused, 0U);
          EXPECT_EQ(inc.reuse.clauses_replayed, 0U);
        } else {
          EXPECT_GT(inc.reuse.archive_candidates, 0U);
        }
      }
    }
  }
}

TEST(Respec, IdenticalSpecReusesArchiveAndClauses) {
  const synth::Specification spec = test::chain3_bus();
  const Checkpoint prev = previous_session(spec, "identical");
  const ExploreResult cold = cold_reference(spec);
  ASSERT_TRUE(cold.certified) << cold.certificate_error;
  const ReexploreResult inc = reexplore(prev, spec, incremental_options(1));
  EXPECT_EQ(inc.reuse.delta.cls, DeltaClass::Identical);
  EXPECT_FALSE(inc.reuse.cold_start);
  EXPECT_EQ(inc.reuse.archive_reused, prev.points.size());
  EXPECT_EQ(inc.reuse.clause_candidates, prev.clauses.size());
  EXPECT_EQ(inc.base.front, cold.front);
  EXPECT_TRUE(inc.base.certified) << inc.base.certificate_error;
  EXPECT_GT(inc.reuse.reuse_rate(), 0.0);
}

// ---- adversarial clause dumps ----------------------------------------------

TEST(Respec, CorruptedClauseDumpIsRejectedNotInstalled) {
  const synth::Specification spec = test::two_proc_bus();
  Checkpoint prev = previous_session(spec, "corrupt_reject");
  ASSERT_TRUE(prev.has_sections);
  // Lits outside the declared base and zero lits: every clause must be
  // dropped individually by decode_replay, never installed.
  prev.clause_base_vars = prev.clause_base_vars != 0 ? prev.clause_base_vars : 8;
  prev.clauses = {{0}, {1, 0, -2}, {999999}, {-999999, 3}};
  const ExploreResult cold = cold_reference(spec);
  const ReexploreResult inc = reexplore(prev, spec, incremental_options(1));
  EXPECT_EQ(inc.reuse.clauses_replayed, 0U);
  EXPECT_EQ(inc.base.front, cold.front);
  EXPECT_TRUE(inc.base.certified) << inc.base.certificate_error;
}

TEST(Respec, MismatchedClauseBaseDegradesToNoReplay) {
  const synth::Specification spec = test::two_proc_bus();
  Checkpoint prev = previous_session(spec, "base_mismatch");
  // A dump from "some other encoding": base_vars can't match this spec's.
  // The dump passes respec's own validation (lits within the declared base),
  // but the explorer must drop the whole hand-off on the base mismatch —
  // nothing is installed.
  prev.clause_base_vars = 3;
  prev.clauses = {{1, -2}, {3}};
  const ExploreResult cold = cold_reference(spec);
  const ReexploreResult inc = reexplore(prev, spec, incremental_options(1));
  EXPECT_EQ(inc.reuse.clauses_replayed, 2U);      // offered…
  EXPECT_EQ(inc.base.stats.replayed_clauses, 0U);  // …but never installed
  EXPECT_EQ(inc.base.front, cold.front);
  EXPECT_TRUE(inc.base.certified) << inc.base.certificate_error;
}

TEST(Respec, HostileInRangeClausesCannotDistortTheFront) {
  // The nastiest case: clauses that *decode fine* but are semantic garbage —
  // contradictory units over real encoding variables.  The assumption guard
  // must contain them: the run goes Unsat under the guard, drops it, and
  // re-proves completeness cold.  Front and certificate must survive, at
  // every thread count.
  const synth::Specification spec = test::chain3_bus();
  Checkpoint prev = previous_session(spec, "hostile");
  ASSERT_NE(prev.clause_base_vars, 0U);
  prev.clauses = {{1}, {-1}, {2}, {-2}};
  const ExploreResult cold = cold_reference(spec);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    const ReexploreResult inc =
        reexplore(prev, spec, incremental_options(threads));
    ASSERT_TRUE(inc.base.stats.complete) << "threads " << threads;
    EXPECT_EQ(inc.base.front, cold.front) << "threads " << threads;
    EXPECT_TRUE(inc.base.certified)
        << "threads " << threads << ": " << inc.base.certificate_error;
  }
}

TEST(Respec, CorruptedCheckpointFileDegradesToColdStart) {
  // End-to-end file path: a truncated/bit-flipped snapshot fails to load, so
  // the caller (see tools/aspmt_dse.cpp) falls back to an empty checkpoint —
  // which reexplore treats as a cold start with zero reuse.
  const synth::Specification spec = test::two_proc_bus();
  Checkpoint empty;  // what a failed load leaves behind
  const ExploreResult cold = cold_reference(spec);
  const ReexploreResult inc = reexplore(empty, spec, incremental_options(1));
  EXPECT_TRUE(inc.reuse.cold_start);
  EXPECT_EQ(inc.reuse.archive_reused, 0U);
  EXPECT_EQ(inc.base.front, cold.front);
  EXPECT_TRUE(inc.base.certified) << inc.base.certificate_error;
}

// ---- observability ----------------------------------------------------------

class RecordingSink final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override { events.push_back(e); }
  std::vector<obs::Event> events;
};

TEST(Respec, EmitsDeltaAndReuseEventsAndMetrics) {
  const synth::Specification base = test::two_proc_bus();
  const Checkpoint prev = previous_session(base, "obs");
  const synth::Specification edited = test::mutate_wcet_bump(base);

  RecordingSink sink;
  obs::MetricsRegistry metrics;
  ReexploreOptions ro = incremental_options(1);
  ro.base.common.certify = false;
  ro.base.common.sink = &sink;
  ro.base.common.metrics = &metrics;
  const ReexploreResult inc = reexplore(prev, edited, ro);
  ASSERT_TRUE(inc.base.stats.complete);

  bool saw_delta = false;
  bool saw_reuse = false;
  for (const obs::Event& e : sink.events) {
    if (e.kind == obs::EventKind::RespecDelta) {
      saw_delta = true;
      EXPECT_EQ(e.a, static_cast<std::int64_t>(DeltaClass::ClauseSafe));
      EXPECT_EQ(e.b, 8);  // objectives-only section mask
    }
    if (e.kind == obs::EventKind::RespecReuse) {
      saw_reuse = true;
      EXPECT_EQ(e.a, static_cast<std::int64_t>(inc.reuse.archive_reused));
      EXPECT_EQ(e.b, static_cast<std::int64_t>(inc.reuse.clauses_replayed));
      EXPECT_EQ(e.c, 0);
    }
  }
  EXPECT_TRUE(saw_delta);
  EXPECT_TRUE(saw_reuse);

  EXPECT_EQ(metrics.counter("respec.archive_reused").value(),
            static_cast<std::uint64_t>(inc.reuse.archive_reused));
  EXPECT_EQ(metrics.counter("respec.clauses_replayed").value(),
            static_cast<std::uint64_t>(inc.reuse.clauses_replayed));
}

// A checkpoint from a 4-thread session, restarted at 4 threads after an
// edit: the scheduler cuts its slices from the reused front, as a cold run
// cuts them from its first front snapshot, and the run lands on the cold
// front.
TEST(Respec, SliceBoundsFromV4CheckpointReseedTheScheduler) {
  const synth::Specification base = test::chain3_bus();
  const std::string path =
      ::testing::TempDir() + "aspmt_respec_slices.ckpt";
  ParallelExploreOptions par;
  par.threads = 4;
  par.common.checkpoint_path = path;
  const ParallelExploreResult prev_run = explore_parallel(base, par);
  ASSERT_TRUE(prev_run.base.stats.complete);
  Checkpoint prev;
  ASSERT_EQ(load_checkpoint(path, prev), "");
  std::remove(path.c_str());

  const synth::Specification edited = test::mutate_wcet_bump(base);
  const ExploreResult cold = cold_reference(edited);
  ASSERT_TRUE(cold.stats.complete);

  const ReexploreResult inc = reexplore(prev, edited, incremental_options(4));
  ASSERT_TRUE(inc.base.stats.complete);
  EXPECT_EQ(inc.base.front, cold.front);
}

}  // namespace
}  // namespace aspmt::dse
