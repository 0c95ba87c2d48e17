// The ObjectiveTerm tree API: factory validation, proof-binding
// serialization, combinator lower-bound semantics on total assignments, the
// tagged Source variant, the linear-only add_lower_bound contract and the
// one-release deprecation shims over the old flat registration calls.
#include "dse/objective_term.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "asp/solver.hpp"
#include "dse/objective_manager.hpp"
#include "theory/difference.hpp"
#include "theory/linear_sum.hpp"

namespace aspmt::dse {
namespace {

using asp::Lit;
using asp::Solver;
using asp::Var;

Lit L(Var v, bool s = true) { return Lit::make(v, s); }

/// Solver + linear propagator with two guarded sums:
///   s0 = 5*[v0] + 3*[v1]     s1 = 7*[v2] + 2*[v3]
struct Fixture {
  Solver solver;
  theory::LinearSumPropagator linear;
  theory::DifferencePropagator difference;
  std::vector<Var> vars;
  theory::LinearSumPropagator::SumId s0, s1;

  Fixture() {
    for (int i = 0; i < 4; ++i) vars.push_back(solver.new_var());
    solver.add_propagator(&linear);
    solver.add_propagator(&difference);
    s0 = linear.add_sum("s0", {{L(vars[0]), 5}, {L(vars[1]), 3}});
    s1 = linear.add_sum("s1", {{L(vars[2]), 7}, {L(vars[3]), 2}});
  }

  /// Force every guard and solve, so leaf bounds are exact totals:
  /// s0 = 8, s1 = 9.
  void fix_all() {
    for (const Var v : vars) ASSERT_TRUE(solver.add_clause({L(v)}));
    ASSERT_EQ(solver.solve(), Solver::Result::Sat);
  }
};

// ---- factory validation -----------------------------------------------------

TEST(ObjectiveTermFactories, LexRejectsBadShapes) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  // Arity mismatch between caps and children.
  EXPECT_THROW(ObjectiveTerm::lex("x", {10}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  // Fewer than two children.
  std::vector<ObjectiveTerm> one;
  one.push_back(leaf(f.s0));
  EXPECT_THROW(ObjectiveTerm::lex("x", {10}, std::move(one)),
               std::invalid_argument);
  // Negative cap.
  EXPECT_THROW(ObjectiveTerm::lex("x", {-1, 5}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  // Cap radix product overflows int64.
  const std::int64_t half = std::int64_t{1} << 33;
  EXPECT_THROW(ObjectiveTerm::lex("x", {half, half}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
}

TEST(ObjectiveTermFactories, WeightedAndFanoutCombinatorsRejectBadShapes) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  EXPECT_THROW(ObjectiveTerm::weighted("w", {2}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  EXPECT_THROW(ObjectiveTerm::weighted("w", {0, 1}, {leaf(f.s0), leaf(f.s1)}),
               std::invalid_argument);
  std::vector<ObjectiveTerm> one;
  one.push_back(leaf(f.s0));
  EXPECT_THROW(ObjectiveTerm::minmax("m", std::move(one)),
               std::invalid_argument);
}

TEST(ObjectiveTermFactories, FloorsAttachOnlyAtLinearLeaves) {
  Fixture f;
  ObjectiveTerm leaf = ObjectiveTerm::linear("l", &f.linear, f.s0);
  leaf.with_floor(&f.linear, f.s1);  // fine
  ObjectiveTerm comb = ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)});
  EXPECT_THROW(comb.with_floor(&f.linear, f.s1), std::invalid_argument);
  const auto node = f.difference.new_node("mk");
  ObjectiveTerm mk = ObjectiveTerm::makespan("mk", &f.difference, node);
  EXPECT_THROW(mk.with_floor(&f.linear, f.s1), std::invalid_argument);
}

// ---- proof-binding serialization -------------------------------------------

TEST(ObjectiveTermSerialize, LeavesMatchTheLegacyBindingBodies) {
  Fixture f;
  std::string out;
  ObjectiveTerm::linear("e", &f.linear, f.s1).serialize(out);
  EXPECT_EQ(out, "L 1");
  out.clear();
  const auto node = f.difference.new_node("mk");
  ObjectiveTerm::makespan("mk", &f.difference, node).serialize(out);
  EXPECT_EQ(out, "D 0");
}

TEST(ObjectiveTermSerialize, CombinatorsEmitTheTreeGrammar) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  std::string out;
  ObjectiveTerm::lex("x", {10, 20}, {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "X 2 10 20 L 0 L 1");
  out.clear();
  ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "M 2 L 0 L 1");
  out.clear();
  ObjectiveTerm::weighted("w", {2, 3}, {leaf(f.s0), leaf(f.s1)}).serialize(out);
  EXPECT_EQ(out, "W 2 2 3 L 0 L 1");
  out.clear();
  // Nesting recurses: lex over (minmax, leaf).
  ObjectiveTerm::lex("x", {30, 9},
                     {ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)}),
                      leaf(f.s0)})
      .serialize(out);
  EXPECT_EQ(out, "X 2 30 9 M 2 L 0 L 1 L 0");
}

// ---- combinator semantics on total assignments ------------------------------

TEST(ObjectiveTermSemantics, CombinatorsFoldExactValuesAtTotalAssignments) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  const ObjectiveTerm mm = ObjectiveTerm::minmax("m", {leaf(f.s0), leaf(f.s1)});
  const ObjectiveTerm w =
      ObjectiveTerm::weighted("w", {2, 3}, {leaf(f.s0), leaf(f.s1)});
  const ObjectiveTerm x =
      ObjectiveTerm::lex("x", {10, 20}, {leaf(f.s0), leaf(f.s1)});
  f.fix_all();  // s0 = 8, s1 = 9
  EXPECT_EQ(mm.lower_bound(), 9);
  EXPECT_EQ(w.lower_bound(), 2 * 8 + 3 * 9);
  EXPECT_EQ(x.lower_bound(), 8 * 21 + 9);  // big-endian, radix cap+1
}

TEST(ObjectiveTermSemantics, LexClampsChildrenToTheirCaps) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  // Cap 6 < s0's total 8: the head child saturates at 6.
  const ObjectiveTerm x =
      ObjectiveTerm::lex("x", {6, 20}, {leaf(f.s0), leaf(f.s1)});
  f.fix_all();
  EXPECT_EQ(x.lower_bound(), 6 * 21 + 9);
}

TEST(ObjectiveTermSemantics, ExplanationsJustifyTheThresholdByChildRecursion) {
  Fixture f;
  auto leaf = [&](theory::LinearSumPropagator::SumId s) {
    return ObjectiveTerm::linear("l", &f.linear, s);
  };
  const ObjectiveTerm x =
      ObjectiveTerm::lex("x", {10, 20}, {leaf(f.s0), leaf(f.s1)});
  f.fix_all();
  std::vector<Lit> reason;
  x.explain(x.lower_bound(), reason);
  EXPECT_FALSE(reason.empty());
  // Every cited literal must actually be assigned true.
  for (const Lit l : reason) {
    EXPECT_EQ(f.solver.value(l), asp::Lbool::True);
  }
}

// ---- ObjectiveManager: Source variant and bound contracts -------------------

TEST(ObjectiveManagerSources, TaggedVariantReportsKindAndTheoryId) {
  Fixture f;
  const auto node = f.difference.new_node("mk");
  ObjectiveManager m;
  m.add(ObjectiveTerm::makespan("latency", &f.difference, node));
  m.add(ObjectiveTerm::linear("energy", &f.linear, f.s1));
  m.add(ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  ASSERT_EQ(m.count(), 3U);
  EXPECT_EQ(m.source(0).kind, ObjectiveManager::Source::Kind::Difference);
  EXPECT_EQ(m.source(0).id, node);
  EXPECT_EQ(m.source(1).kind, ObjectiveManager::Source::Kind::Linear);
  EXPECT_EQ(m.source(1).id, f.s1);
  EXPECT_EQ(m.source(2).kind, ObjectiveManager::Source::Kind::Combinator);
}

TEST(ObjectiveManagerBounds, LowerBoundsPushOnlyOntoLinearLeaves) {
  Fixture f;
  const auto node = f.difference.new_node("mk");
  ObjectiveManager m;
  m.add(ObjectiveTerm::linear("energy", &f.linear, f.s0));
  m.add(ObjectiveTerm::makespan("latency", &f.difference, node));
  m.add(ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  EXPECT_TRUE(m.add_lower_bound(0, 3));
  EXPECT_FALSE(m.add_lower_bound(1, 3));
  EXPECT_FALSE(m.add_lower_bound(2, 3));
}

TEST(ObjectiveManagerBounds, ResidualCombinatorBoundsRequireThePropagator) {
  Fixture f;
  ObjectiveManager m;
  // minmax fans out fully: no residual needed even when unattached.
  m.add(ObjectiveTerm::minmax(
      "m", {ObjectiveTerm::linear("a", &f.linear, f.s0),
            ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  // weighted pushdown is incomplete: the remainder needs the propagator.
  m.add(ObjectiveTerm::weighted(
      "w", {2, 3},
      {ObjectiveTerm::linear("a", &f.linear, f.s0),
       ObjectiveTerm::linear("b", &f.linear, f.s1)}));
  m.add_bound(0, 5);  // ok
  EXPECT_THROW(m.add_bound(1, 5), std::logic_error);
}

}  // namespace
}  // namespace aspmt::dse
