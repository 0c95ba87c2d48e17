#include "asp/completion.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "test_util.hpp"
#include "util/rng.hpp"

namespace aspmt::asp {
namespace {

TEST(Completion, TightnessDetection) {
  Program tight;
  const Atom a = tight.new_atom("a");
  const Atom b = tight.new_atom("b");
  tight.rule(b, {pos(a)});
  tight.fact(a);
  Solver s1;
  EXPECT_NO_THROW((void)compile(tight, s1));

  // A positive 2-cycle is refused before any solver variable exists.
  Program loop;
  const Atom x = loop.new_atom("x");
  const Atom y = loop.new_atom("y");
  loop.rule(x, {pos(y)});
  loop.rule(y, {pos(x)});
  Solver s2;
  EXPECT_THROW((void)compile(loop, s2), std::invalid_argument);
  EXPECT_EQ(s2.num_vars(), 0U);
}

TEST(Completion, SelfLoopIsCyclic) {
  Program p;
  const Atom a = p.new_atom("a");
  p.rule(a, {pos(a)});
  Solver s;
  EXPECT_THROW((void)compile(p, s), std::invalid_argument);
  EXPECT_EQ(s.num_vars(), 0U);
}

TEST(Completion, NegativeCycleStaysTight) {
  // Negation does not create positive dependencies.
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.rule(a, {neg(b)});
  p.rule(b, {neg(a)});
  Solver s;
  EXPECT_NO_THROW((void)compile(p, s));
}

TEST(Completion, SupportClauseForcesFalseWithoutRules) {
  Program p;
  const Atom a = p.new_atom("a");
  (void)a;
  Solver s;
  const auto c = compile(p, s);
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_FALSE(s.model_value(c.atom_var[a]));
}

TEST(Completion, DerivationForcesHead) {
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  p.fact(a);
  p.rule(b, {pos(a)});
  Solver s;
  const auto c = compile(p, s);
  ASSERT_EQ(s.solve(), Solver::Result::Sat);
  EXPECT_TRUE(s.model_value(c.atom_var[b]));
}

TEST(Completion, SharedBodiesReuseAuxiliaries) {
  Program p;
  const Atom a = p.new_atom("a");
  const Atom b = p.new_atom("b");
  const Atom c1 = p.new_atom("c1");
  const Atom c2 = p.new_atom("c2");
  p.choice_rule(a);
  p.choice_rule(b);
  p.rule(c1, {pos(a), pos(b)});
  p.rule(c2, {pos(a), pos(b)});
  Solver s;
  const auto compiled = compile(p, s);
  // 4 atoms + 1 constant-true + exactly one shared body auxiliary.
  EXPECT_EQ(s.num_vars(), compiled.atom_var.size() + 2);
}

// Property: on random *tight* programs, completion alone must reproduce the
// brute-force stable models.
class RandomTightProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTightProgram, MatchesBruteForce) {
  util::Rng rng(GetParam());
  Program p;
  const std::uint32_t n = 7;
  std::vector<Atom> atoms;
  for (std::uint32_t i = 0; i < n; ++i) {
    atoms.push_back(p.new_atom("a" + std::to_string(i)));
  }
  // Tight by construction: positive bodies only reference lower atoms.
  for (std::uint32_t i = 0; i < n; ++i) {
    const int kind = static_cast<int>(rng.below(3));
    std::vector<BodyLit> body;
    const std::uint32_t body_len = static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t k = 0; k < body_len; ++k) {
      const bool positive = rng.chance(0.5);
      if (positive && i > 0) {
        body.push_back(pos(atoms[rng.below(i)]));
      } else {
        body.push_back(neg(atoms[rng.below(n)]));
      }
    }
    if (kind == 0) {
      p.choice_rule(atoms[i], std::move(body));
    } else {
      p.rule(atoms[i], std::move(body));
    }
  }
  if (rng.chance(0.5)) {
    p.integrity({pos(atoms[rng.below(n)]), neg(atoms[rng.below(n)])});
  }

  Solver solver;
  const auto compiled = compile(p, solver);
  std::vector<Var> vars;
  for (const Atom a : atoms) vars.push_back(compiled.atom_var[a]);
  const auto via_solver = test::enumerate_projected(solver, vars);
  const auto reference = test::brute_force_stable_models(p);
  EXPECT_EQ(via_solver, reference) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTightProgram,
                         ::testing::Range<std::uint64_t>(0, 40));

/// Independent oracle for `compile`'s precondition: does some atom reach
/// itself through positive body occurrences (Warshall's closure)?
bool positively_cyclic(const Program& p) {
  const std::uint32_t n = p.num_atoms();
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (const Rule& r : p.rules()) {
    for (const BodyLit& bl : r.body) {
      if (bl.positive) reach[r.head][bl.atom] = true;
    }
  }
  for (Atom k = 0; k < n; ++k) {
    for (Atom i = 0; i < n; ++i) {
      for (Atom j = 0; j < n; ++j) {
        if (reach[i][k] && reach[k][j]) reach[i][j] = true;
      }
    }
  }
  for (Atom a = 0; a < n; ++a) {
    if (reach[a][a]) return true;
  }
  return false;
}

/// The level-indexed form the encoder uses to stay tight (DESIGN §6
/// hop-indexed routing), applied to any program: atoms 0..n-1 of the result
/// guess a candidate set S by choice rules, `level[k][a]` holds iff `a` is in
/// the k-th step of the least-model iteration of the reduct of `p` by S, and
/// S must equal step n.  That iteration over n atoms is stable after n steps,
/// so the result's models projected on 0..n-1 are the stable models of `p`,
/// and every positive body atom sits one level below its head: the result is
/// tight whatever `p` is.
Program level_unrolled(const Program& p) {
  const std::uint32_t n = p.num_atoms();
  Program out;
  for (Atom a = 0; a < n; ++a) out.choice_rule(out.new_atom(p.name(a)));
  std::vector<std::vector<Atom>> level(n + 1);  // level[0] stays empty
  for (std::uint32_t k = 1; k <= n; ++k) {
    for (Atom a = 0; a < n; ++a) level[k].push_back(out.new_atom());
    for (const Rule& r : p.rules()) {
      std::vector<BodyLit> body;
      bool derivable = true;
      for (const BodyLit& bl : r.body) {
        if (!bl.positive) {
          body.push_back(neg(bl.atom));  // the reduct tests `not` against S
        } else if (k == 1) {
          derivable = false;  // nothing is derived before step 1
        } else {
          body.push_back(pos(level[k - 1][bl.atom]));
        }
      }
      if (!derivable) continue;
      if (r.choice) body.push_back(pos(r.head));  // kept only if S chose it
      out.rule(level[k][r.head], std::move(body));
    }
  }
  for (Atom a = 0; a < n; ++a) {
    out.integrity({pos(a), neg(level[n][a])});
    out.integrity({neg(a), pos(level[n][a])});
  }
  for (const auto& body : p.constraints()) out.integrity(body);
  return out;
}

/// Stable models of `p` through the pipeline, by way of `level_unrolled`.
std::set<std::vector<bool>> unrolled_stable_models(const Program& p) {
  const auto full = test::solver_stable_models(level_unrolled(p));
  std::set<std::vector<bool>> projected;
  for (const auto& m : full) {
    projected.insert(std::vector<bool>(m.begin(), m.begin() + p.num_atoms()));
  }
  EXPECT_EQ(projected.size(), full.size())
      << "the level atoms must be functionally determined by the guess";
  return projected;
}

/// The pipeline on a program that may be non-tight: `compile` refuses it,
/// before it makes any solver variable, exactly when it has a positive
/// cycle; a tight one is solved as it is; either way its level-indexed form
/// is solved, and both must give `reference`.
void expect_pipeline_matches(const Program& p,
                             const std::set<std::vector<bool>>& reference,
                             std::uint64_t seed) {
  if (positively_cyclic(p)) {
    Solver solver;
    EXPECT_THROW((void)compile(p, solver), std::invalid_argument)
        << "seed " << seed;
    EXPECT_EQ(solver.num_vars(), 0U) << "seed " << seed;
  } else {
    EXPECT_EQ(test::solver_stable_models(p), reference) << "seed " << seed;
  }
  EXPECT_EQ(unrolled_stable_models(p), reference) << "seed " << seed;
}

// Property: random (frequently non-tight) programs agree with brute force.
class RandomLoopyProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomLoopyProgram, MatchesBruteForce) {
  util::Rng rng(GetParam() * 7919 + 13);
  Program p;
  const std::uint32_t n = 6;
  std::vector<Atom> atoms;
  for (std::uint32_t i = 0; i < n; ++i) {
    atoms.push_back(p.new_atom("a" + std::to_string(i)));
  }
  const std::uint32_t rules = 4 + static_cast<std::uint32_t>(rng.below(6));
  for (std::uint32_t r = 0; r < rules; ++r) {
    const Atom head = atoms[rng.below(n)];
    std::vector<BodyLit> body;
    const std::uint32_t body_len = static_cast<std::uint32_t>(rng.below(3));
    for (std::uint32_t k = 0; k < body_len; ++k) {
      // Unrestricted positive references: loops happen regularly.
      body.push_back(BodyLit{atoms[rng.below(n)], rng.chance(0.6)});
    }
    if (rng.chance(0.3)) {
      p.choice_rule(head, std::move(body));
    } else {
      p.rule(head, std::move(body));
    }
  }
  expect_pipeline_matches(p, test::brute_force_stable_models(p), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLoopyProgram,
                         ::testing::Range<std::uint64_t>(0, 60));

/// `bound <= #sum {w: lit, ...}` with positive weights, kept only by the
/// reference below; the program under test gets it as normal rules.
struct WeightedLit {
  BodyLit lit;
  std::int64_t weight = 1;
};

struct RefWeightRule {
  Atom head;
  std::int64_t bound;
  std::vector<WeightedLit> body;
};

struct RefProgram {
  std::uint32_t num_atoms = 0;
  std::vector<Rule> rules;  // normal + choice
  std::vector<RefWeightRule> weight_rules;
};

/// Stable models with weight bodies evaluated directly: a weight rule fires
/// in the reduct's least-model iteration once its satisfied elements reach
/// the bound.
std::set<std::vector<bool>> reference_models(const RefProgram& p) {
  std::set<std::vector<bool>> out;
  for (std::uint64_t mask = 0; mask < (1ULL << p.num_atoms); ++mask) {
    const auto in_s = [&](Atom a) { return ((mask >> a) & 1ULL) != 0; };
    std::vector<bool> derived(p.num_atoms, false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const Rule& r : p.rules) {
        if (derived[r.head]) continue;
        if (r.choice && !in_s(r.head)) continue;
        bool ok = true;
        for (const BodyLit& bl : r.body) {
          if (bl.positive ? !derived[bl.atom] : in_s(bl.atom)) ok = false;
        }
        if (ok) {
          derived[r.head] = true;
          changed = true;
        }
      }
      for (const RefWeightRule& r : p.weight_rules) {
        if (derived[r.head]) continue;
        std::int64_t have = 0;
        for (const WeightedLit& e : r.body) {
          const bool sat =
              e.lit.positive ? derived[e.lit.atom] : !in_s(e.lit.atom);
          if (sat) have += e.weight;
        }
        if (have >= r.bound) {
          derived[r.head] = true;
          changed = true;
        }
      }
    }
    bool stable = true;
    std::vector<bool> candidate(p.num_atoms);
    for (Atom a = 0; a < p.num_atoms; ++a) {
      candidate[a] = in_s(a);
      if (derived[a] != candidate[a]) stable = false;
    }
    if (stable) out.insert(std::move(candidate));
  }
  return out;
}

// Property: random programs with weight bodies, written as normal rules (one
// per subset of elements that reaches the bound; positive weights make the
// body monotone, so this keeps the stable models), match the reference that
// evaluates the weight bodies themselves.
class RandomWeightProgram : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWeightProgram, MatchesReference) {
  util::Rng rng(GetParam() * 131 + 7);
  Program p;
  RefProgram ref;
  const std::uint32_t n = 5;
  std::vector<Atom> atoms;
  for (std::uint32_t i = 0; i < n; ++i) {
    atoms.push_back(p.new_atom("a" + std::to_string(i)));
  }
  ref.num_atoms = n;
  const std::uint32_t rules = 3 + static_cast<std::uint32_t>(rng.below(4));
  for (std::uint32_t r = 0; r < rules; ++r) {
    const Atom head = atoms[rng.below(n)];
    const int kind = static_cast<int>(rng.below(3));
    if (kind == 0) {
      p.choice_rule(head);
      ref.rules.push_back(Rule{head, {}, true});
    } else if (kind == 1) {
      std::vector<BodyLit> body;
      const std::uint32_t len = static_cast<std::uint32_t>(rng.below(3));
      for (std::uint32_t k = 0; k < len; ++k) {
        body.push_back(BodyLit{atoms[rng.below(n)], rng.chance(0.6)});
      }
      ref.rules.push_back(Rule{head, body, false});
      p.rule(head, std::move(body));
    } else {
      std::vector<WeightedLit> body;
      const std::uint32_t len = 1 + static_cast<std::uint32_t>(rng.below(3));
      for (std::uint32_t k = 0; k < len; ++k) {
        body.push_back(WeightedLit{
            BodyLit{atoms[rng.below(n)], rng.chance(0.6)}, rng.range(1, 4)});
      }
      const std::int64_t bound = rng.range(1, 6);
      for (std::uint32_t subset = 1; subset < (1U << len); ++subset) {
        std::int64_t sum = 0;
        std::vector<BodyLit> lits;
        for (std::uint32_t k = 0; k < len; ++k) {
          if (((subset >> k) & 1U) == 0) continue;
          sum += body[k].weight;
          lits.push_back(body[k].lit);
        }
        if (sum >= bound) p.rule(head, std::move(lits));
      }
      ref.weight_rules.push_back(RefWeightRule{head, bound, std::move(body)});
    }
  }
  expect_pipeline_matches(p, reference_models(ref), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWeightProgram,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
}  // namespace aspmt::asp
