// Clause-arena garbage collection must be unobservable: compacting at any
// point — every few conflicts, or via the wasted-fraction trigger — may
// only move clauses around in memory.  The tests pin that down by running
// the same instances with compaction disabled, forced aggressively, and
// driven by the normal trigger, and demanding identical model sequences,
// identical search statistics, and proofs the independent checker accepts.
#include "asp/solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "asp/proof.hpp"
#include "cert/checker.hpp"
#include "util/rng.hpp"

namespace aspmt::asp {
namespace {

Lit L(Var v, bool s = true) { return Lit::make(v, s); }

std::vector<std::vector<Lit>> random_cnf(std::uint64_t seed,
                                         std::uint32_t num_vars,
                                         std::size_t num_clauses) {
  util::Rng rng(seed);
  std::vector<std::vector<Lit>> cnf;
  cnf.reserve(num_clauses);
  while (cnf.size() < num_clauses) {
    const std::size_t width = 3 + rng.below(3);  // 3..5 literals
    std::vector<Lit> clause;
    for (std::size_t k = 0; k < width; ++k) {
      clause.push_back(L(static_cast<Var>(rng.below(num_vars)), rng.chance(0.5)));
    }
    cnf.push_back(std::move(clause));
  }
  return cnf;
}

std::vector<std::vector<Lit>> pigeonhole_cnf(int pigeons,
                                             std::uint32_t& num_vars) {
  const int holes = pigeons - 1;
  num_vars = static_cast<std::uint32_t>(pigeons * holes);
  std::vector<std::vector<Lit>> cnf;
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> c;
    for (int h = 0; h < holes; ++h) {
      c.push_back(L(static_cast<Var>(p * holes + h)));
    }
    cnf.push_back(std::move(c));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        cnf.push_back({L(static_cast<Var>(p1 * holes + h), false),
                       L(static_cast<Var>(p2 * holes + h), false)});
      }
    }
  }
  return cnf;
}

struct EnumerationTrace {
  std::vector<std::vector<bool>> models;  // in discovery order
  SolverStats stats;
};

/// Enumerate every model (in solver order) by blocking full assignments.
/// A tight learnt-DB cap forces reduce_learnt_db early and often, so
/// compaction has actual garbage to collect.
EnumerationTrace enumerate_all(const std::vector<std::vector<Lit>>& cnf,
                               std::uint32_t num_vars,
                               const SolverOptions& options,
                               ProofLog* proof = nullptr,
                               std::size_t max_models = 500) {
  Solver solver(options);
  if (proof != nullptr) solver.set_proof(proof);
  for (Var v = 0; v < num_vars; ++v) solver.new_var();
  for (const auto& clause : cnf) {
    if (!solver.add_clause(clause)) break;
  }
  EnumerationTrace trace;
  while (trace.models.size() < max_models &&
         solver.solve() == Solver::Result::Sat) {
    std::vector<bool> model;
    std::vector<Lit> blocking;
    model.reserve(num_vars);
    for (Var v = 0; v < num_vars; ++v) {
      const bool val = solver.model_value(v);
      model.push_back(val);
      blocking.push_back(L(v, !val));
    }
    trace.models.push_back(std::move(model));
    if (!solver.add_clause(std::move(blocking))) break;
  }
  trace.stats = solver.stats();
  return trace;
}

SolverOptions tight_db_options() {
  SolverOptions options;
  options.learnt_start = 30;  // reduce_learnt_db fires every few conflicts
  options.learnt_growth = 1.05;
  return options;
}

void expect_same_search(const SolverStats& a, const SolverStats& b) {
  EXPECT_EQ(a.conflicts, b.conflicts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.propagations, b.propagations);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.learnt_clauses, b.learnt_clauses);
  EXPECT_EQ(a.deleted_clauses, b.deleted_clauses);
  EXPECT_EQ(a.models, b.models);
}

TEST(ClauseGc, ForcedCompactionLeavesEnumerationIdentical) {
  // Random instances near the constrained regime: compare the model
  // sequences (capped — the count is irrelevant, the order is not).
  for (std::uint64_t seed : {11U, 23U, 47U}) {
    const auto cnf = random_cnf(seed, 40, 190);

    SolverOptions off = tight_db_options();
    off.gc_fraction = 0.0;  // never compact
    const EnumerationTrace base = enumerate_all(cnf, 40, off);

    SolverOptions forced = tight_db_options();
    forced.gc_every_conflicts = 3;  // compact constantly
    const EnumerationTrace gc = enumerate_all(cnf, 40, forced);

    EXPECT_EQ(base.stats.arena_gcs, 0U);
    if (gc.stats.conflicts >= 3) {
      EXPECT_GT(gc.stats.arena_gcs, 0U) << "seed " << seed;
    }
    EXPECT_EQ(base.models, gc.models) << "seed " << seed;
    expect_same_search(base.stats, gc.stats);
  }
}

TEST(ClauseGc, WastedFractionTriggerLeavesRefutationIdentical) {
  std::uint32_t num_vars = 0;
  const auto cnf = pigeonhole_cnf(7, num_vars);

  SolverOptions off = tight_db_options();
  off.gc_fraction = 0.0;
  const EnumerationTrace base = enumerate_all(cnf, num_vars, off);

  SolverOptions eager = tight_db_options();
  eager.gc_fraction = 0.01;  // compact on the slightest waste
  const EnumerationTrace gc = enumerate_all(cnf, num_vars, eager);

  EXPECT_TRUE(base.models.empty());
  EXPECT_TRUE(gc.models.empty());
  EXPECT_GT(gc.stats.arena_gcs, 0U);
  expect_same_search(base.stats, gc.stats);
}

TEST(ClauseGc, ProofStreamIsCompactionInvariantAndChecks) {
  std::uint32_t num_vars = 0;
  const auto cnf = pigeonhole_cnf(6, num_vars);

  ProofLog base_proof;
  SolverOptions off = tight_db_options();
  off.gc_fraction = 0.0;
  (void)enumerate_all(cnf, num_vars, off, &base_proof);

  ProofLog gc_proof;
  SolverOptions forced = tight_db_options();
  forced.gc_every_conflicts = 2;
  const EnumerationTrace gc = enumerate_all(cnf, num_vars, forced, &gc_proof);

  ASSERT_GT(gc.stats.arena_gcs, 0U);
  ASSERT_GT(gc.stats.deleted_clauses, 0U)
      << "learnt-DB reduction never fired; the GC had nothing to collect";
  // Deletions are identified by literal content, so relocation must be
  // invisible in the proof stream.
  const std::string gc_text = gc_proof.take_text();
  EXPECT_EQ(base_proof.take_text(), gc_text);

  cert::CheckOptions check;
  check.require_global_unsat = true;
  const cert::CheckResult result = cert::check_proof(gc_text, check);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.concluded_global_unsat);
}

TEST(ClauseGc, CompactionReclaimsArenaSpace) {
  std::uint32_t num_vars = 0;
  const auto cnf = pigeonhole_cnf(7, num_vars);

  SolverOptions forced = tight_db_options();
  forced.gc_every_conflicts = 16;
  Solver solver(forced);
  for (Var v = 0; v < num_vars; ++v) solver.new_var();
  for (const auto& clause : cnf) ASSERT_TRUE(solver.add_clause(clause));
  EXPECT_EQ(solver.solve(), Solver::Result::Unsat);
  EXPECT_GT(solver.stats().arena_gcs, 0U);
  EXPECT_GT(solver.stats().deleted_clauses, 0U);
}

}  // namespace
}  // namespace aspmt::asp
