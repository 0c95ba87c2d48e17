// Combinator objectives end to end: differential fronts against a
// brute-force reference at 1/2/4 threads (certified), the multicore PPA
// family through the portfolio and distributed paths, weighted axes over
// linear leaves built as one linear sum, scenario/objective spec
// round-trips, and adversarial proofs tampering with the serialized
// objective-tree bindings.
//
// The reference construction leans on monotonicity: every combinator is
// monotone in the base metrics (latency, nominal energy, cost, per-scenario
// energies), so any design optimal under combinator axes has a leaf-metric
// vector on the leaf-axis Pareto front.  Exploring with one leaf axis per
// metric and folding that front through evaluate_objective_expr therefore
// reproduces the exact combinator front.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "cert/checker.hpp"
#include "dse/context.hpp"
#include "dse/distributed.hpp"
#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "gen/multicore.hpp"
#include "pareto/archive.hpp"
#include "synth/objective_expr.hpp"
#include "synth/specio.hpp"
#include "synth_fixtures.hpp"

namespace aspmt {
namespace {

synth::Specification with_axes(synth::Specification s,
                               const std::vector<std::string>& axes) {
  for (const std::string& a : axes) {
    synth::ObjectiveExpr e;
    const std::string err = synth::parse_objective_expr(a, e);
    EXPECT_EQ(err, "") << a;
    s.add_objective(std::move(e));
  }
  return s;
}

/// chain3_bus plus a "hot" scenario: p0's energy triples, p1's doubles.
synth::Specification chain3_hot() {
  synth::Specification s = test::chain3_bus();
  const std::size_t hot = s.add_scenario("hot");
  s.set_scenario_factor(hot, 1, 3);  // p0
  s.set_scenario_factor(hot, 2, 2);  // p1
  return s;
}

/// One leaf axis per base metric: latency, energy, cost, energy@<scenario>.
std::vector<std::string> leaf_axes(const synth::Specification& base) {
  std::vector<std::string> axes = {"latency", "energy", "cost"};
  for (const synth::Scenario& s : base.scenarios()) {
    axes.push_back("energy@" + s.name);
  }
  return axes;
}

std::vector<pareto::Vec> sorted(std::vector<pareto::Vec> front) {
  std::sort(front.begin(), front.end());
  return front;
}

/// Brute-force reference: leaf-axis front folded through the combinator
/// expressions, reduced to the non-dominated set.
std::vector<pareto::Vec> reference_front(
    const synth::Specification& base,
    const std::vector<std::string>& comb_axes) {
  const synth::Specification leaf = with_axes(base, leaf_axes(base));
  const dse::ExploreResult r = dse::explore(leaf);
  EXPECT_TRUE(r.stats.complete);
  const synth::Specification comb = with_axes(base, comb_axes);
  pareto::LinearArchive archive;
  for (const pareto::Vec& p : r.front) {
    synth::MetricValues mv;
    mv.latency = p[0];
    mv.energy = p[1];
    mv.cost = p[2];
    mv.scenario_energy.assign(p.begin() + 3, p.end());
    pareto::Vec q;
    for (const synth::ObjectiveExpr& e : comb.objective_exprs()) {
      q.push_back(synth::evaluate_objective_expr(comb, e, mv));
    }
    archive.insert(q);
  }
  return sorted(archive.points());
}

/// Sequential certified run plus the portfolio at 1/2/4 threads, all
/// compared against the brute-force reference.
void expect_differential(const synth::Specification& base,
                         const std::vector<std::string>& comb_axes) {
  const std::vector<pareto::Vec> ref = reference_front(base, comb_axes);
  ASSERT_FALSE(ref.empty());
  const synth::Specification comb = with_axes(base, comb_axes);

  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(comb, opts);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_TRUE(r.certified) << r.certificate_error;
  EXPECT_EQ(sorted(r.front), ref);

  for (const std::size_t threads : {1U, 2U, 4U}) {
    dse::ParallelExploreOptions popts;
    popts.threads = threads;
    const dse::ParallelExploreResult pr = dse::explore_parallel(comb, popts);
    ASSERT_TRUE(pr.base.stats.complete) << "threads " << threads;
    EXPECT_EQ(sorted(pr.base.front), ref) << "threads " << threads;
  }
}

// ---- differential fronts ----------------------------------------------------

TEST(CombinatorFronts, LexMatchesBruteForceCertified) {
  expect_differential(test::chain3_bus(), {"lex(latency,energy)", "cost"});
}

TEST(CombinatorFronts, MinMaxMatchesBruteForceCertified) {
  expect_differential(test::chain3_bus(), {"minmax(latency,cost)", "energy"});
}

TEST(CombinatorFronts, WeightedMatchesBruteForceCertified) {
  expect_differential(test::chain3_bus(),
                      {"weighted(2*latency+3*energy)", "cost"});
}

TEST(CombinatorFronts, ScenarioWorstMatchesBruteForceCertified) {
  expect_differential(chain3_hot(), {"worst(energy,energy@hot)", "latency"});
}

TEST(CombinatorFronts, NestedTreeMatchesBruteForceCertified) {
  expect_differential(chain3_hot(),
                      {"lex(minmax(latency,cost),energy@hot)", "energy"});
}

TEST(CombinatorFronts, DiamondLexMatchesBruteForceCertified) {
  expect_differential(test::diamond_two_proc(),
                      {"lex(latency,cost)", "energy"});
}

// A weighted node over linear leaves is built as one linear sum; these
// cover the leaf kinds it merges (nominal and scenario energy, cost, shared
// guards, a nested rewrite) and a mixed tree whose inner node alone merges.
TEST(CombinatorFronts, WeightedLinearLeavesMatchBruteForceCertified) {
  expect_differential(chain3_hot(), {"weighted(2*energy+1*cost)", "latency"});
}

TEST(CombinatorFronts, WeightedScenarioEnergyMatchesBruteForceCertified) {
  expect_differential(chain3_hot(),
                      {"weighted(3*energy@hot+1*cost)", "latency"});
}

TEST(CombinatorFronts, WeightedSharedGuardsMatchBruteForceCertified) {
  expect_differential(chain3_hot(),
                      {"weighted(1*energy+2*energy)", "latency"});
}

TEST(CombinatorFronts, NestedWeightedLinearMatchesBruteForceCertified) {
  expect_differential(
      chain3_hot(),
      {"weighted(1*weighted(2*energy+1*cost)+2*energy@hot)", "latency"});
}

TEST(CombinatorFronts, MixedWeightedOverALinearSumMatchesBruteForceCertified) {
  expect_differential(
      chain3_hot(),
      {"weighted(2*latency+1*weighted(2*energy+1*cost))", "latency"});
}

// ---- the multicore PPA family ----------------------------------------------

gen::MulticoreConfig small_multicore() {
  gen::MulticoreConfig c;
  c.seed = 3;
  c.tasks = 4;
  c.big_cores = 1;
  c.little_cores = 1;
  c.pipeline_depths = 2;
  c.cache_levels = 1;
  return c;
}

TEST(MulticoreFamily, GeneratesValidatingSpecsWithCombinatorAxes) {
  const synth::Specification spec = gen::generate_multicore(small_multicore());
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(spec.axis_count(), 2U);
  EXPECT_EQ(spec.scenario_index("throttle"), 0U);
  EXPECT_EQ(core_variant_count(small_multicore()), 4U);
  // A malformed axis surfaces as a diagnostic, not a bad spec.
  gen::MulticoreConfig bad = small_multicore();
  bad.axes = {"lex(latency)"};
  EXPECT_THROW(gen::generate_multicore(bad), std::invalid_argument);
  gen::MulticoreConfig unknown = small_multicore();
  unknown.axes = {"energy@nosuch"};
  EXPECT_THROW(gen::generate_multicore(unknown), std::invalid_argument);
}

TEST(MulticoreFamily, CombinatorFrontMatchesBruteForceAcrossThreads) {
  // Re-generating with leaf axes reproduces the identical platform and task
  // graph (the RNG never sees the axis list), so the differential harness
  // applies to the generated family as-is.
  const synth::Specification comb = gen::generate_multicore(small_multicore());
  gen::MulticoreConfig leaf_cfg = small_multicore();
  leaf_cfg.axes = {"latency", "energy", "cost", "energy@throttle"};
  const synth::Specification leaf = gen::generate_multicore(leaf_cfg);

  const dse::ExploreResult lr = dse::explore(leaf);
  ASSERT_TRUE(lr.stats.complete);
  pareto::LinearArchive archive;
  for (const pareto::Vec& p : lr.front) {
    synth::MetricValues mv;
    mv.latency = p[0];
    mv.energy = p[1];
    mv.cost = p[2];
    mv.scenario_energy = {p[3]};
    pareto::Vec q;
    for (const synth::ObjectiveExpr& e : comb.objective_exprs()) {
      q.push_back(synth::evaluate_objective_expr(comb, e, mv));
    }
    archive.insert(q);
  }
  const std::vector<pareto::Vec> ref = sorted(archive.points());

  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(comb, opts);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_TRUE(r.certified) << r.certificate_error;
  EXPECT_EQ(sorted(r.front), ref);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    dse::ParallelExploreOptions popts;
    popts.threads = threads;
    const dse::ParallelExploreResult pr = dse::explore_parallel(comb, popts);
    ASSERT_TRUE(pr.base.stats.complete) << "threads " << threads;
    EXPECT_EQ(sorted(pr.base.front), ref) << "threads " << threads;
  }
}

TEST(MulticoreFamily, DistributedShardsOnTheLinearAreaAxis) {
  const synth::Specification spec = gen::generate_multicore(small_multicore());
  const dse::ExploreResult seq = dse::explore(spec);
  ASSERT_TRUE(seq.stats.complete);

  dse::DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.shard_objective = 1;  // "cost": a linear leaf — the only sound band
  const dse::DistributedResult r = dse::explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
  EXPECT_EQ(sorted(r.base.front), sorted(seq.front));
}

TEST(MulticoreFamily, CombinatorShardAxisIsRejectedNotMiscomputed) {
  const synth::Specification spec = gen::generate_multicore(small_multicore());
  dse::DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.shard_objective = 0;  // lex(latency,energy): banding would be unsound
  EXPECT_THROW(dse::explore_distributed(spec, opts), std::invalid_argument);
  dse::DistributedOptions oob = opts;
  oob.shard_objective = 7;  // out of range
  EXPECT_THROW(dse::explore_distributed(spec, oob), std::invalid_argument);
  // A library call of the portfolio refuses the band up front, the same way
  // at every thread count, before any worker starts.
  for (const std::size_t threads : {1U, 4U}) {
    for (const std::size_t objective : {0U, 7U}) {
      dse::ParallelExploreOptions par;
      par.threads = threads;
      par.shard.active = true;
      par.shard.objective = objective;
      EXPECT_THROW((void)dse::explore_parallel(spec, par),
                   std::invalid_argument)
          << "threads " << threads << ", objective " << objective;
    }
  }
}

// ---- weighted axes over linear leaves: one linear sum ---------------------

/// The context a certified run builds (floors off, as under proof logging).
dse::ContextOptions certified_context() {
  dse::ContextOptions o;
  o.objective_floors = false;
  return o;
}

/// True when a line of `proof` after its header starts with `prefix`.
bool has_line_starting(const std::string& proof, const std::string& prefix) {
  std::string needle = "\n";
  needle += prefix;
  return proof.find(needle) != std::string::npos;
}

TEST(CombinatorWeightedAsLinear, MergesSharedGuardsIntoOneSumWithAFloor) {
  const synth::Specification spec =
      with_axes(chain3_hot(), {"weighted(1*energy+2*energy)", "latency"});
  dse::SynthContext ctx(spec);
  const dse::ObjectiveTerm& axis = ctx.objectives.term(0);
  ASSERT_EQ(axis.kind(), dse::ObjectiveTerm::Kind::Linear);
  // k·terms of sum s, in the sum's order.
  auto scaled = [&](theory::LinearSumPropagator::SumId s, std::int64_t k) {
    std::vector<std::pair<asp::Lit, std::int64_t>> out;
    for (const theory::Term& t : ctx.linear.terms(s)) {
      out.emplace_back(t.guard, k * t.weight);
    }
    return out;
  };
  // 3·energy term for term, and 3·energy_floor as its floor.
  EXPECT_EQ(scaled(axis.leaf_id(), 1), scaled(ctx.encoding.energy_sum, 3));
  ASSERT_TRUE(axis.floor_sum().has_value());
  EXPECT_EQ(scaled(*axis.floor_sum(), 1),
            scaled(ctx.encoding.energy_floor_sum.value(), 3));
}

TEST(CombinatorWeightedAsLinear, CertifiedProofBindsTheSumAndHasNoResidualBound) {
  const synth::Specification spec =
      with_axes(chain3_hot(), {"weighted(2*energy+1*cost)", "latency"});
  const dse::SynthContext ctx(spec, certified_context());
  const dse::ObjectiveTerm& axis = ctx.objectives.term(0);
  ASSERT_EQ(axis.kind(), dse::ObjectiveTerm::Kind::Linear);

  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  std::string binding = "O 0 L ";
  binding += std::to_string(axis.leaf_id());
  binding += '\n';
  EXPECT_TRUE(has_line_starting(r.proof, binding)) << binding;
  EXPECT_FALSE(has_line_starting(r.proof, "OB "));
  EXPECT_FALSE(has_line_starting(r.proof, "T CB "));
  cert::CheckOptions copts;
  copts.require_global_unsat = true;
  const cert::CheckResult verdict = cert::check_proof(r.proof, copts);
  EXPECT_TRUE(verdict.ok) << verdict.error;
}

TEST(CombinatorWeightedAsLinear, ANonLinearChildKeepsTheCombinator) {
  const synth::Specification spec =
      with_axes(chain3_hot(), {"weighted(2*latency+3*energy)", "cost"});
  const dse::SynthContext ctx(spec, certified_context());
  EXPECT_EQ(ctx.objectives.term(0).kind(), dse::ObjectiveTerm::Kind::Weighted);

  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  EXPECT_TRUE(has_line_starting(r.proof, "O 0 W 2 2 3 D "));

  // In a mixed tree only the all-linear inner node becomes a sum.
  const synth::Specification mixed = with_axes(
      chain3_hot(), {"weighted(2*latency+1*weighted(2*energy+1*cost))", "cost"});
  const dse::SynthContext mctx(mixed, certified_context());
  const dse::ObjectiveTerm& outer = mctx.objectives.term(0);
  ASSERT_EQ(outer.kind(), dse::ObjectiveTerm::Kind::Weighted);
  EXPECT_EQ(outer.children()[0].kind(), dse::ObjectiveTerm::Kind::Difference);
  EXPECT_EQ(outer.children()[1].kind(), dse::ObjectiveTerm::Kind::Linear);
}

TEST(CombinatorWeightedAsLinear, AnInt64OverflowingTotalKeepsTheCombinator) {
  // 10^18 times any energy total above 9 exceeds INT64_MAX.
  const std::vector<std::string> axes = {
      "weighted(1000000000000000000*energy+1*cost)", "latency"};
  const synth::Specification spec = with_axes(chain3_hot(), axes);
  const dse::SynthContext ctx(spec);
  EXPECT_EQ(ctx.objectives.term(0).kind(), dse::ObjectiveTerm::Kind::Weighted);
  dse::ExploreResult r;
  ASSERT_NO_THROW(r = dse::explore(spec));
  ASSERT_TRUE(r.stats.complete);
  EXPECT_EQ(sorted(r.front), reference_front(chain3_hot(), axes));
}

TEST(CombinatorWeightedAsLinear, DistributedShardsDeclareTheSameSum) {
  gen::MulticoreConfig cfg = small_multicore();
  cfg.axes = {"weighted(2*energy+1*cost)", "latency", "cost"};
  const synth::Specification spec = gen::generate_multicore(cfg);
  const dse::ExploreResult seq = dse::explore(spec);
  ASSERT_TRUE(seq.stats.complete);

  dse::DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.shards = 3;
  opts.shard_objective = 2;  // cost
  opts.base.common.certify = true;
  const dse::DistributedResult r = dse::explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  EXPECT_GE(r.shards.size(), 2U);
  // The merged certificate compares the shards' declarations, so it only
  // holds when every shard built the same merged sum.
  EXPECT_TRUE(r.base.certified) << r.base.certificate_error;
  test::expect_front_shape(spec, r.base);
  EXPECT_EQ(sorted(r.base.front), sorted(seq.front));
}

// ---- scenario/objective spec round-trips ------------------------------------

TEST(CombinatorSpecIo, ScenarioAndObjectiveLinesRoundTripByteIdentically) {
  const synth::Specification spec =
      with_axes(chain3_hot(), {"lex(latency,energy@hot)", "cost"});
  const std::string text = synth::to_text(spec);
  EXPECT_NE(text.find("scenario hot p0=3 p1=2"), std::string::npos) << text;
  EXPECT_NE(text.find("objective lex(latency,energy@hot)"), std::string::npos)
      << text;
  const synth::Specification back = synth::parse_specification(text);
  EXPECT_EQ(back.validate(), "");
  EXPECT_EQ(synth::to_text(back), text);
  ASSERT_EQ(back.scenarios().size(), 1U);
  EXPECT_EQ(back.scenarios()[0].name, "hot");
  ASSERT_EQ(back.objective_exprs().size(), 2U);
  EXPECT_EQ(synth::to_string(back.objective_exprs()[0]),
            "lex(latency,energy@hot)");
  EXPECT_EQ(synth::to_string(back.objective_exprs()[1]), "cost");
}

TEST(CombinatorSpecIo, UndeclaredScenarioInAnAxisFailsValidation) {
  const synth::Specification spec =
      with_axes(test::chain3_bus(), {"worst(energy,energy@phantom)"});
  EXPECT_NE(spec.validate().find("phantom"), std::string::npos)
      << spec.validate();
}

// ---- adversarial objective-tree bindings ------------------------------------

cert::CheckResult check(const std::string& proof, bool require_unsat = false) {
  cert::CheckOptions opts;
  opts.require_global_unsat = require_unsat;
  return cert::check_proof(proof, opts);
}

// Two guarded sums for hand-written proofs:
//   sum 0 = 5*[v1]      sum 1 = 7*[v2]
const char kTwoSums[] = "p aspmt 1\nS 0 1 1 5\nS 1 1 2 7\n";

TEST(ObjectiveTreeBindings, LexDominanceLemmaVerifiesViaTreeRederivation) {
  // Axis 0 = lex(s0, s1) with caps 10/20: pack(5, 7) = 5*21 + 7 = 112.
  const std::string proof = std::string(kTwoSums) +
                            "O 0 X 2 10 20 L 0 L 1\n"
                            "F 1 112 0\n"
                            "T DOM 1 112 ; -1 -2 0\n";
  EXPECT_TRUE(check(proof).ok) << check(proof).error;
}

TEST(ObjectiveTreeBindings, OverclaimedThresholdIsRejected) {
  const std::string proof = std::string(kTwoSums) +
                            "O 0 X 2 10 20 L 0 L 1\n"
                            "F 1 112 0\n"
                            "T DOM 1 113 ; -1 -2 0\n";
  const auto r = check(proof);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("do not reach"), std::string::npos) << r.error;
}

TEST(ObjectiveTreeBindings, DominanceWithoutADeclaredTreeIsRejected) {
  const std::string proof =
      std::string(kTwoSums) + "F 1 112 0\nT DOM 1 112 ; -1 -2 0\n";
  const auto r = check(proof);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("never declared"), std::string::npos) << r.error;
}

TEST(ObjectiveTreeBindings, MalformedTreesAreRejectedAtDeclaration) {
  const struct {
    const char* line;
    const char* why;
  } kBad[] = {
      {"O 0 L 0 L 1\n", "trailing tokens"},
      {"O 0 X 2 9223372036854775807 9223372036854775807 L 0 L 1\n",
       "lex packing overflows"},
      {"O 0 X 2 -1 5 L 0 L 1\n", "negative lex cap"},
      {"O 0 W 2 0 1 L 0 L 1\n", "weight must be positive"},
      {"O 0 M 1 L 0\n", "combinator needs two children"},
      {"O 0 M 2 L 0\n", "missing term"},
      {"O 0 Q 2 L 0 L 1\n", "unknown term kind"},
      // worst(...) serializes as M (a labelled minmax); V is no term kind.
      {"O 0 V 2 L 0 L 1\n", "unknown term kind"},
  };
  for (const auto& bad : kBad) {
    const auto r = check(std::string(kTwoSums) + bad.line);
    EXPECT_FALSE(r.ok) << bad.line;
    EXPECT_NE(r.error.find(bad.why), std::string::npos)
        << bad.line << " -> " << r.error;
  }
}

TEST(ObjectiveTreeBindings, CombinatorBoundsNeedTheirDeclarations) {
  // OB before any O line: rejected.
  const auto undeclared =
      check(std::string(kTwoSums) + "OB 0 4 3\n");
  EXPECT_FALSE(undeclared.ok);
  EXPECT_NE(undeclared.error.find("undeclared objective"), std::string::npos)
      << undeclared.error;
  // CB lemma citing a bound that was never declared: rejected.
  const auto uncited = check(std::string(kTwoSums) +
                             "O 0 M 2 L 0 L 1\n"
                             "T CB 0 4 3 ; -3 -1 -2 0\n");
  EXPECT_FALSE(uncited.ok);
  EXPECT_NE(uncited.error.find("never declared"), std::string::npos)
      << uncited.error;
  // The honest version verifies: max(5, 7) = 7 > 4 under both guards.
  const auto honest = check(std::string(kTwoSums) +
                            "O 0 M 2 L 0 L 1\n"
                            "OB 0 4 3\n"
                            "T CB 0 4 3 ; -3 -1 -2 0\n");
  EXPECT_TRUE(honest.ok) << honest.error;
  // A weaker clause that misses one guard only reaches max(5) = 5 > 4 —
  // still true here, so instead drop the activation negation: rejected.
  const auto no_act = check(std::string(kTwoSums) +
                            "O 0 M 2 L 0 L 1\n"
                            "OB 0 4 3\n"
                            "T CB 0 4 3 ; -1 -2 0\n");
  EXPECT_FALSE(no_act.ok);
  EXPECT_NE(no_act.error.find("activation"), std::string::npos)
      << no_act.error;
}

TEST(ObjectiveTreeBindings, RealCombinatorProofRejectsABrokenBinding) {
  const synth::Specification spec =
      with_axes(test::chain3_bus(), {"lex(latency,energy)", "cost"});
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  ASSERT_FALSE(r.proof.empty());
  ASSERT_TRUE(check(r.proof, true).ok) << check(r.proof, true).error;

  // Deleting the combinator axis's binding orphans every dominance lemma
  // that prunes through it.
  std::string tampered = r.proof;
  const std::size_t pos = tampered.find("\nO 0 ");
  ASSERT_NE(pos, std::string::npos) << "proof lacks the axis-0 binding";
  const std::size_t eol = tampered.find('\n', pos + 1);
  tampered.erase(pos, eol - pos);
  const auto broken = check(tampered, true);
  EXPECT_FALSE(broken.ok);
  // Whichever references the orphaned axis first reports it: a residual OB
  // declaration ("combinator bound on an undeclared objective") or a
  // dominance lemma ("objective binding was never declared").
  EXPECT_NE(broken.error.find("declared"), std::string::npos) << broken.error;
}

}  // namespace
}  // namespace aspmt
