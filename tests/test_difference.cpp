#include "theory/difference.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "asp/solver.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace aspmt::theory {
namespace {

using asp::Lit;
using asp::Solver;
using asp::Var;

Lit L(Var v, bool s = true) { return Lit::make(v, s); }

TEST(Difference, UnconditionalChain) {
  Solver s;
  DifferencePropagator dl;
  const auto a = dl.new_node("a");
  const auto b = dl.new_node("b");
  const auto c = dl.new_node("c");
  dl.add_edge(a, b, 3, {});
  dl.add_edge(b, c, 4, {});
  EXPECT_FALSE(dl.infeasible());
  EXPECT_EQ(dl.lower_bound(a), 0);
  EXPECT_EQ(dl.lower_bound(b), 3);
  EXPECT_EQ(dl.lower_bound(c), 7);
}

TEST(Difference, LongestOfTwoPathsWins) {
  Solver s;
  DifferencePropagator dl;
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  const auto c = dl.new_node();
  const auto d = dl.new_node();
  dl.add_edge(a, b, 10, {});
  dl.add_edge(b, d, 1, {});
  dl.add_edge(a, c, 2, {});
  dl.add_edge(c, d, 2, {});
  EXPECT_EQ(dl.lower_bound(d), 11);
}

TEST(Difference, UnconditionalPositiveCycleIsConstructionError) {
  Solver s;
  DifferencePropagator dl;
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 1, {});
  dl.add_edge(b, a, 1, {});
  EXPECT_TRUE(dl.infeasible());
}

TEST(Difference, ZeroWeightCycleIsFine) {
  Solver s;
  DifferencePropagator dl;
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 0, {});
  dl.add_edge(b, a, 0, {});
  EXPECT_FALSE(dl.infeasible());
  EXPECT_EQ(dl.lower_bound(a), 0);
  EXPECT_EQ(dl.lower_bound(b), 0);
}

TEST(Difference, GuardedEdgeActivatesWithLiteral) {
  Solver s;
  DifferencePropagator dl;
  const Var g = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 5, {L(g)});
  dl.add_bound(b, 3);
  // g true violates the bound on b.
  ASSERT_TRUE(s.add_clause({L(g)}));
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

TEST(Difference, GuardedEdgeInactiveWhenGuardFalse) {
  Solver s;
  DifferencePropagator dl;
  const Var g = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 5, {L(g)});
  dl.add_bound(b, 3);
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(g));  // bound forces the guard off
}

TEST(Difference, ConjunctiveGuardNeedsAllLiterals) {
  Solver s;
  DifferencePropagator dl;
  const Var g1 = s.new_var();
  const Var g2 = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 5, {L(g1), L(g2)});
  dl.add_bound(b, 3);
  const auto models = test::enumerate_projected(s, {g1, g2});
  // Only g1 & g2 together are forbidden.
  EXPECT_EQ(models.size(), 3U);
  EXPECT_EQ(models.count({true, true}), 0U);
}

TEST(Difference, GuardedPositiveCycleConflicts) {
  Solver s;
  DifferencePropagator dl;
  const Var g1 = s.new_var();
  const Var g2 = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 2, {L(g1)});
  dl.add_edge(b, a, 2, {L(g2)});
  const auto models = test::enumerate_projected(s, {g1, g2});
  EXPECT_EQ(models.size(), 3U);
  EXPECT_EQ(models.count({true, true}), 0U);
}

TEST(Difference, DisjunctiveOrderingBothDirectionsFeasible) {
  // Classic serialization: either a before b or b before a.
  Solver s;
  DifferencePropagator dl;
  const Var o_ab = s.new_var();
  const Var o_ba = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  const auto mak = dl.new_node();
  dl.add_edge(a, b, 4, {L(o_ab)});
  dl.add_edge(b, a, 4, {L(o_ba)});
  dl.add_edge(a, mak, 4, {});
  dl.add_edge(b, mak, 4, {});
  ASSERT_TRUE(s.add_clause({L(o_ab), L(o_ba)}));
  ASSERT_TRUE(s.add_clause({~L(o_ab), ~L(o_ba)}));
  dl.add_bound(mak, 8);
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
  // Makespan below the serial length is impossible.
  dl.add_bound(mak, 7);
  EXPECT_EQ(s.solve(), Solver::Result::Unsat);
}

TEST(Difference, ActivationGuardedBound) {
  Solver s;
  DifferencePropagator dl;
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 10, {});
  const Var act = s.new_var();
  dl.add_bound(b, 5, L(act));
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
  const std::vector<Lit> assume{L(act)};
  EXPECT_EQ(s.solve(assume), Solver::Result::Unsat);
  EXPECT_EQ(s.solve(), Solver::Result::Sat);
}

TEST(Difference, BacktrackingRestoresDistances) {
  Solver s;
  DifferencePropagator dl;
  const Var g = s.new_var();
  const Var x = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  dl.add_edge(a, b, 7, {L(g)});
  // Force a conflict after g is set, then check dist rewinds: encode
  // g -> x and g -> ~x.
  ASSERT_TRUE(s.add_clause({~L(g), L(x)}));
  ASSERT_TRUE(s.add_clause({~L(g), ~L(x)}));
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(g));
  EXPECT_EQ(dl.lower_bound(b), 0);  // rewound at root
}

// Reference longest path via Bellman-Ford over active edges.
std::vector<std::int64_t> reference_longest(
    std::size_t n, const std::vector<std::tuple<int, int, std::int64_t>>& edges) {
  std::vector<std::int64_t> dist(n, 0);
  for (std::size_t round = 0; round <= n + 1; ++round) {
    bool changed = false;
    for (const auto& [u, v, w] : edges) {
      if (dist[u] + w > dist[v]) {
        dist[v] = dist[u] + w;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

class RandomDlDag : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomDlDag, FixpointMatchesBellmanFord) {
  util::Rng rng(GetParam() * 31 + 5);
  const std::size_t n = 8;
  Solver s;
  DifferencePropagator dl;
  std::vector<DifferencePropagator::NodeId> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(dl.new_node());
  std::vector<Var> guards;
  struct E {
    int u, v;
    std::int64_t w;
    Var g;
  };
  std::vector<E> edges;
  // Random forward edges (DAG: u < v), each with its own guard variable.
  for (int u = 0; u < static_cast<int>(n); ++u) {
    for (int v = u + 1; v < static_cast<int>(n); ++v) {
      if (!rng.chance(0.4)) continue;
      const Var g = s.new_var();
      const std::int64_t w = rng.range(1, 9);
      guards.push_back(g);
      edges.push_back(E{u, v, w, g});
      dl.add_edge(nodes[u], nodes[v], w, {L(g)});
    }
  }
  s.add_propagator(&dl);
  // Fix a random subset of guards via unit clauses.
  std::vector<std::tuple<int, int, std::int64_t>> active;
  for (const E& e : edges) {
    if (rng.chance(0.6)) {
      ASSERT_TRUE(s.add_clause({L(e.g)}));
      active.emplace_back(e.u, e.v, e.w);
    } else {
      ASSERT_TRUE(s.add_clause({~L(e.g)}));
    }
  }
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  // Distances at the root fixpoint (all units propagated at level 0).
  const auto expected = reference_longest(n, active);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(dl.lower_bound(nodes[i]), expected[i]) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDlDag, ::testing::Range<std::uint64_t>(0, 30));

TEST(Difference, ExplainBoundCollectsPathGuards) {
  Solver s;
  DifferencePropagator dl;
  const Var g1 = s.new_var();
  const Var g2 = s.new_var();
  s.add_propagator(&dl);
  const auto a = dl.new_node();
  const auto b = dl.new_node();
  const auto c = dl.new_node();
  dl.add_edge(a, b, 3, {L(g1)});
  dl.add_edge(b, c, 3, {L(g2)});
  ASSERT_TRUE(s.add_clause({L(g1)}));
  ASSERT_TRUE(s.add_clause({L(g2)}));
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  // At the root fixpoint after solve, units persist: explanation of c's
  // bound must mention both guards.
  std::vector<Lit> expl;
  dl.explain_bound(c, expl);
  EXPECT_EQ(expl.size(), 2U);
}

}  // namespace
}  // namespace aspmt::theory
