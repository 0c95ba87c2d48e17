#include "asp/program.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "asp/completion.hpp"
#include "asp/solver.hpp"
#include "test_util.hpp"

namespace aspmt::test {

// Defined here, declared in test_util.hpp: run a program through the full
// production pipeline and enumerate its answer sets.
std::set<std::vector<bool>> solver_stable_models(const asp::Program& program) {
  asp::Solver solver;
  const asp::CompiledProgram compiled = asp::compile(program, solver);
  std::vector<asp::Var> vars;
  for (asp::Atom a = 0; a < program.num_atoms(); ++a) {
    vars.push_back(compiled.atom_var[a]);
  }
  return enumerate_projected(solver, vars);
}

}  // namespace aspmt::test

namespace aspmt::asp {
namespace {

TEST(Program, AtomCreationAndNames) {
  Program p;
  const Atom a = p.new_atom("alpha");
  const Atom b = p.new_atom();
  EXPECT_EQ(p.name(a), "alpha");
  EXPECT_FALSE(p.name(b).empty());
  EXPECT_EQ(p.num_atoms(), 2U);
}

TEST(Program, RuleKindsRecorded) {
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.fact(a);
  p.rule(b, {pos(a)});
  p.choice_rule(b, {neg(a)});
  p.integrity({pos(a), pos(b)});
  ASSERT_EQ(p.rules().size(), 3U);
  EXPECT_FALSE(p.rules()[0].choice);
  EXPECT_TRUE(p.rules()[2].choice);
  EXPECT_EQ(p.constraints().size(), 1U);
}

TEST(StableModels, FactsOnly) {
  Program p;
  const Atom a = p.new_atom("a");
  p.new_atom("b");
  p.fact(a);
  const auto ref = test::brute_force_stable_models(p);
  ASSERT_EQ(ref.size(), 1U);
  EXPECT_TRUE(ref.count({true, false}) == 1);
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

TEST(StableModels, EvenNegationLoopHasTwoModels) {
  // a :- not b.  b :- not a.
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.rule(a, {neg(b)});
  p.rule(b, {neg(a)});
  const auto ref = test::brute_force_stable_models(p);
  EXPECT_EQ(ref.size(), 2U);
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

TEST(StableModels, OddNegationLoopHasNoModel) {
  // a :- not a.
  Program p;
  const Atom a = p.new_atom("a");
  p.rule(a, {neg(a)});
  const auto ref = test::brute_force_stable_models(p);
  EXPECT_EQ(ref.size(), 0U);
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

TEST(StableModels, PositiveLoopUnfounded) {
  // a :- b.  b :- a.   only the empty model is stable, but the completion
  // also admits {a, b}; the pipeline refuses the non-tight program instead.
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.rule(a, {pos(b)});
  p.rule(b, {pos(a)});
  const auto ref = test::brute_force_stable_models(p);
  ASSERT_EQ(ref.size(), 1U);
  EXPECT_TRUE(ref.count({false, false}) == 1);
  Solver solver;
  EXPECT_THROW((void)compile(p, solver), std::invalid_argument);
  EXPECT_EQ(solver.num_vars(), 0U);
}

TEST(StableModels, ChoiceRuleGeneratesSubsets) {
  // {a}. {b}. -> 4 models.
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.choice_rule(a);
  p.choice_rule(b);
  const auto ref = test::brute_force_stable_models(p);
  EXPECT_EQ(ref.size(), 4U);
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

TEST(StableModels, ChoiceWithBodyIsConditional) {
  // {b} :- a.  with a a choice too: b requires a.
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.choice_rule(a);
  p.choice_rule(b, {pos(a)});
  const auto ref = test::brute_force_stable_models(p);
  EXPECT_EQ(ref.size(), 3U);  // {}, {a}, {a,b}
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

TEST(StableModels, IntegrityConstraintFilters) {
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.choice_rule(a);
  p.choice_rule(b);
  p.integrity({pos(a), pos(b)});
  const auto ref = test::brute_force_stable_models(p);
  EXPECT_EQ(ref.size(), 3U);
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

TEST(StableModels, ConstraintWithNegation) {
  // {a}. :- not a.  -> only {a}.
  Program p;
  const Atom a = p.new_atom("a");
  p.choice_rule(a);
  p.integrity({neg(a)});
  const auto models = test::solver_stable_models(p);
  ASSERT_EQ(models.size(), 1U);
  EXPECT_TRUE(models.count({true}) == 1);
}

TEST(StableModels, UnreachableAtomForcedFalse) {
  Program p;
  const Atom a = p.new_atom("a");
  const Atom orphan = p.new_atom("orphan");
  (void)orphan;
  p.fact(a);
  const auto models = test::solver_stable_models(p);
  ASSERT_EQ(models.size(), 1U);
  EXPECT_TRUE(models.begin()->at(1) == false);
}

TEST(StableModels, ContradictoryBodyNeverFires) {
  // b :- a, not a.  {a}.  b never derivable.
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.choice_rule(a);
  p.rule(b, {pos(a), neg(a)});
  const auto ref = test::brute_force_stable_models(p);
  for (const auto& m : ref) EXPECT_FALSE(m[b]);
  EXPECT_EQ(test::solver_stable_models(p), ref);
}

}  // namespace
}  // namespace aspmt::asp
