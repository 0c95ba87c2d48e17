#include "theory/linear_sum.hpp"

#include <gtest/gtest.h>

#include "asp/solver.hpp"
#include "test_util.hpp"

namespace aspmt::theory {
namespace {

using asp::Lit;
using asp::Solver;
using asp::Var;

Lit L(Var v, bool s = true) { return Lit::make(v, s); }

struct Fixture {
  Solver solver;
  LinearSumPropagator linear;
  std::vector<Var> vars;

  explicit Fixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) vars.push_back(solver.new_var());
    solver.add_propagator(&linear);
  }
};

TEST(LinearSum, BoundsAtRoot) {
  Fixture f(3);
  const auto sum = f.linear.add_sum(
      "s", {{L(f.vars[0]), 5}, {L(f.vars[1]), 3}, {L(f.vars[2]), 2}});
  EXPECT_EQ(f.linear.lower_bound(sum), 0);
  // Every guard is undecided: the sum can still reach all its weight.
  std::int64_t total = 0;
  for (const Term& t : f.linear.terms(sum)) total += t.weight;
  EXPECT_EQ(total, 10);
}

TEST(LinearSum, ValueUnderModelMatchesGuards) {
  Fixture f(3);
  const auto sum = f.linear.add_sum(
      "s", {{L(f.vars[0]), 5}, {L(f.vars[1]), 3}, {~L(f.vars[2]), 2}});
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[0])}));
  ASSERT_TRUE(f.solver.add_clause({~L(f.vars[1])}));
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[2])}));
  ASSERT_EQ(f.solver.solve(), Solver::Result::Sat);
  EXPECT_EQ(f.linear.value_under_model(sum, f.solver.model()), 5);
}

TEST(LinearSum, UnguardedBoundPrunesModels) {
  Fixture f(4);
  std::vector<Term> terms;
  for (const Var v : f.vars) terms.push_back(Term{L(v), 1});
  const auto sum = f.linear.add_sum("count", std::move(terms));
  f.linear.add_bound(sum, 2);
  const auto models = test::enumerate_projected(f.solver, f.vars);
  // Subsets of size <= 2 of 4 elements: 1 + 4 + 6 = 11.
  EXPECT_EQ(models.size(), 11U);
}

TEST(LinearSum, WeightedBoundExactFrontier) {
  Fixture f(3);
  const auto sum = f.linear.add_sum(
      "s", {{L(f.vars[0]), 4}, {L(f.vars[1]), 3}, {L(f.vars[2]), 2}});
  f.linear.add_bound(sum, 5);
  const auto models = test::enumerate_projected(f.solver, f.vars);
  // Allowed subsets: {}, {4}, {3}, {2}, {3,2}=5. Not {4,3},{4,2},{4,3,2}.
  EXPECT_EQ(models.size(), 5U);
}

TEST(LinearSum, BoundZeroForcesAllGuardsFalse) {
  Fixture f(3);
  std::vector<Term> terms;
  for (const Var v : f.vars) terms.push_back(Term{L(v), 2});
  const auto sum = f.linear.add_sum("s", std::move(terms));
  f.linear.add_bound(sum, 0);
  ASSERT_EQ(f.solver.solve(), Solver::Result::Sat);
  for (const Var v : f.vars) EXPECT_FALSE(f.solver.model_value(v));
}

TEST(LinearSum, InfeasibleBoundUnsat) {
  Fixture f(2);
  const auto sum =
      f.linear.add_sum("s", {{L(f.vars[0]), 3}, {L(f.vars[1]), 3}});
  f.linear.add_bound(sum, 4);
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[0])}));
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[1])}));
  EXPECT_EQ(f.solver.solve(), Solver::Result::Unsat);
}

TEST(LinearSum, ActivationGuardedBoundOnlyUnderAssumption) {
  Fixture f(2);
  const auto sum =
      f.linear.add_sum("s", {{L(f.vars[0]), 3}, {L(f.vars[1]), 3}});
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[0])}));
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[1])}));
  const Var act = f.solver.new_var();
  f.linear.add_bound(sum, 4, L(act));
  // Without the assumption the bound is dormant.
  EXPECT_EQ(f.solver.solve(), Solver::Result::Sat);
  // Under the assumption it bites.
  const std::vector<Lit> assume{L(act)};
  EXPECT_EQ(f.solver.solve(assume), Solver::Result::Unsat);
  // And the solver stays usable.
  EXPECT_EQ(f.solver.solve(), Solver::Result::Sat);
}

TEST(LinearSum, TightestOfMultipleBoundsWins) {
  Fixture f(3);
  std::vector<Term> terms;
  for (const Var v : f.vars) terms.push_back(Term{L(v), 1});
  const auto sum = f.linear.add_sum("s", std::move(terms));
  f.linear.add_bound(sum, 2);
  f.linear.add_bound(sum, 1);
  const auto models = test::enumerate_projected(f.solver, f.vars);
  EXPECT_EQ(models.size(), 4U);  // size <= 1
}

TEST(LinearSum, ExplainLowerBoundPrefersHeavyGuards) {
  Fixture f(3);
  const auto sum = f.linear.add_sum(
      "s", {{L(f.vars[0]), 10}, {L(f.vars[1]), 2}, {L(f.vars[2]), 1}});
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[0])}));
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[1])}));
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[2])}));
  ASSERT_EQ(f.solver.solve(), Solver::Result::Sat);
  // Bounds and explanation state live on the trail; query inside a check:
  // solve() backtracks to root, so re-propagate by solving again with the
  // propagator attached and inspect through value_under_model instead.
  EXPECT_EQ(f.linear.value_under_model(sum, f.solver.model()), 13);
}

TEST(LinearSum, PartialEvaluationOffDelaysConflictToCheck) {
  Fixture f(2);
  f.linear.set_partial_evaluation(false);
  const auto sum =
      f.linear.add_sum("s", {{L(f.vars[0]), 3}, {L(f.vars[1]), 3}});
  f.linear.add_bound(sum, 4);
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[0])}));
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[1])}));
  // Still unsatisfiable — just discovered later.
  EXPECT_EQ(f.solver.solve(), Solver::Result::Unsat);
}

TEST(LinearSum, SeveralSumsIndependent) {
  Fixture f(2);
  const auto s1 = f.linear.add_sum("one", {{L(f.vars[0]), 7}});
  const auto s2 = f.linear.add_sum("two", {{L(f.vars[1]), 9}});
  ASSERT_TRUE(f.solver.add_clause({L(f.vars[0])}));
  ASSERT_TRUE(f.solver.add_clause({~L(f.vars[1])}));
  ASSERT_EQ(f.solver.solve(), Solver::Result::Sat);
  EXPECT_EQ(f.linear.value_under_model(s1, f.solver.model()), 7);
  EXPECT_EQ(f.linear.value_under_model(s2, f.solver.model()), 0);
  EXPECT_EQ(f.linear.name(s1), "one");
  EXPECT_EQ(f.linear.name(s2), "two");
}

TEST(LinearSum, NegativeLiteralGuards) {
  // Terms guarded by negative literals count when the variable is false.
  Fixture f(2);
  const auto sum =
      f.linear.add_sum("s", {{~L(f.vars[0]), 5}, {~L(f.vars[1]), 5}});
  f.linear.add_bound(sum, 5);
  const auto models = test::enumerate_projected(f.solver, f.vars);
  // Forbidden: both false (sum 10). 3 models remain.
  EXPECT_EQ(models.size(), 3U);
  EXPECT_EQ(models.count({false, false}), 0U);
}

}  // namespace
}  // namespace aspmt::theory
