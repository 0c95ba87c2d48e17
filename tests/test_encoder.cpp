#include "synth/encoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "asp/proof.hpp"
#include "dse/context.hpp"
#include "synth_fixtures.hpp"
#include "synth/validator.hpp"

namespace aspmt::synth {
namespace {

TEST(Encoder, SingletonHasUniqueSolution) {
  const Specification spec = test::singleton();
  dse::SynthContext ctx(spec);
  ASSERT_EQ(ctx.solver.solve(), asp::Solver::Result::Sat);
  const Implementation impl = ctx.capture().implementation();
  EXPECT_EQ(impl.binding[0], 0U);
  EXPECT_EQ(impl.start[0], 0);
  EXPECT_EQ(impl.latency, 4);
  EXPECT_EQ(impl.energy, 2);
  EXPECT_EQ(impl.cost, 3);
  EXPECT_EQ(validate_implementation(spec, impl), "");
}

TEST(Encoder, TwoProcDecodesValidImplementation) {
  const Specification spec = test::two_proc_bus();
  dse::SynthContext ctx(spec);
  ASSERT_EQ(ctx.solver.solve(), asp::Solver::Result::Sat);
  const Implementation impl = ctx.capture().implementation();
  EXPECT_EQ(validate_implementation(spec, impl), "") << impl.describe(spec);
}

TEST(Encoder, SameResourceBindingHasEmptyRoute) {
  const Specification spec = test::two_proc_bus();
  dse::SynthContext ctx(spec);
  // Force both tasks onto p0 (option 0 of each task).
  ASSERT_TRUE(ctx.solver.add_clause(
      {ctx.encoding.lit(ctx.encoding.bind_atom[0][0])}));
  ASSERT_TRUE(ctx.solver.add_clause(
      {ctx.encoding.lit(ctx.encoding.bind_atom[1][0])}));
  ASSERT_EQ(ctx.solver.solve(), asp::Solver::Result::Sat);
  const Implementation impl = ctx.capture().implementation();
  EXPECT_TRUE(impl.route[0].empty());
  // Serial execution on one resource: latency = 3 + 2.
  EXPECT_EQ(impl.latency, 5);
  // Cost: only p0 allocated.
  EXPECT_EQ(impl.cost, 10);
  EXPECT_EQ(validate_implementation(spec, impl), "");
}

TEST(Encoder, CrossBindingRoutesOverBus) {
  const Specification spec = test::two_proc_bus();
  dse::SynthContext ctx(spec);
  // a on p0 (option 0), b on p1 (option 1).
  ASSERT_TRUE(ctx.solver.add_clause(
      {ctx.encoding.lit(ctx.encoding.bind_atom[0][0])}));
  ASSERT_TRUE(ctx.solver.add_clause(
      {ctx.encoding.lit(ctx.encoding.bind_atom[1][1])}));
  ASSERT_EQ(ctx.solver.solve(), asp::Solver::Result::Sat);
  const Implementation impl = ctx.capture().implementation();
  ASSERT_EQ(impl.route[0].size(), 2U);  // p0 -> bus -> p1
  EXPECT_EQ(validate_implementation(spec, impl), "");
  // Latency: 3 (wcet a) + 2 hops * payload 2 * delay 1 = 4, then wcet b = 4
  // -> start(b) >= 7, latency = 11.
  EXPECT_EQ(impl.latency, 11);
  // Energy: 4 (a on p0) + 1 (b on p1) + 2 hops * 2 payload = 9.
  EXPECT_EQ(impl.energy, 9);
  // Cost: p0 + bus + p1 = 10 + 1 + 5.
  EXPECT_EQ(impl.cost, 16);
}

TEST(Encoder, HopBoundRespected) {
  const Specification spec = test::two_proc_bus();
  dse::SynthContext ctx(spec);
  EXPECT_EQ(ctx.encoding.hops, 2U);
}

TEST(Encoder, DecisionLiteralsCoverGuessedAtoms) {
  const Specification spec = test::diamond_two_proc();
  dse::SynthContext ctx(spec);
  // 4 tasks * 2 binding options, plus steps and prec atoms.
  EXPECT_GE(ctx.encoding.decision_lits.size(), 8U);
}

TEST(Encoder, ProgramIsTight) {
  // asp::compile throws on a non-tight program.
  const Specification spec = test::chain3_bus();
  EXPECT_NO_THROW(dse::SynthContext ctx(spec));
}

TEST(Encoder, SerializationForcedOnSharedResource) {
  const Specification spec = test::diamond_two_proc();
  dse::SynthContext ctx(spec);
  // Force b and c onto the same processor: some prec atom between them must
  // then be true in every model.
  const auto& enc = ctx.encoding;
  ASSERT_TRUE(ctx.solver.add_clause({enc.lit(enc.bind_atom[1][0])}));
  ASSERT_TRUE(ctx.solver.add_clause({enc.lit(enc.bind_atom[2][0])}));
  ASSERT_EQ(ctx.solver.solve(), asp::Solver::Result::Sat);
  bool found_pair = false;
  for (const auto& pp : enc.prec_pairs) {
    if ((pp.t1 == 1 && pp.t2 == 2)) {
      found_pair = true;
      const bool p12 = ctx.solver.model_value(enc.lit(pp.t1_first).var());
      const bool p21 = ctx.solver.model_value(enc.lit(pp.t2_first).var());
      EXPECT_TRUE(p12 != p21);  // exactly one direction
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(Encoder, ObjectivesRegisteredInCanonicalOrder) {
  const Specification spec = test::two_proc_bus();
  dse::SynthContext ctx(spec);
  ASSERT_EQ(ctx.objectives.count(), 3U);
  EXPECT_EQ(ctx.objectives.name(0), "latency");
  EXPECT_EQ(ctx.objectives.name(1), "energy");
  EXPECT_EQ(ctx.objectives.name(2), "cost");
}

TEST(Encoder, CapturedVectorMatchesImplementation) {
  const Specification spec = test::chain3_bus();
  dse::SynthContext ctx(spec);
  ASSERT_EQ(ctx.solver.solve(), asp::Solver::Result::Sat);
  EXPECT_EQ(ctx.capture().vector(), ctx.capture().implementation().objectives());
}

/// The `I` steps of a proof, each as its sorted proof integers.
std::vector<std::vector<std::int64_t>> input_clauses(const std::string& proof) {
  std::vector<std::vector<std::int64_t>> out;
  std::istringstream lines(proof);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("I ", 0) != 0) continue;
    std::istringstream tokens(line.substr(2));
    std::vector<std::int64_t> clause;
    for (std::int64_t v = 0; tokens >> v && v != 0;) clause.push_back(v);
    std::sort(clause.begin(), clause.end());
    out.push_back(std::move(clause));
  }
  return out;
}

/// True when the input clauses hold the compiled integrity constraint
/// `:- b1, b2`: a body literal x defined by (x v -b1 v -b2), and the unit -x.
bool refuses_pair(const std::vector<std::vector<std::int64_t>>& inputs,
                  asp::Lit b1, asp::Lit b2) {
  const std::int64_t n1 = -asp::proof_int(b1);
  const std::int64_t n2 = -asp::proof_int(b2);
  for (const auto& c : inputs) {
    if (c.size() != 3 || std::count(c.begin(), c.end(), n1) != 1 ||
        std::count(c.begin(), c.end(), n2) != 1) {
      continue;
    }
    for (const std::int64_t x : c) {
      if (x == n1 || x == n2) continue;
      const std::vector<std::int64_t> unit{-x};
      if (std::find(inputs.begin(), inputs.end(), unit) != inputs.end()) {
        return true;
      }
    }
  }
  return false;
}

TEST(Encoder, UnroutablePairIsRefusedWithFloorsOff) {
  // p0 -> bus -> p1 takes two hops: with max_hops 1 only same-processor
  // bindings can deliver the message.
  Specification spec = test::two_proc_bus();
  spec.max_hops = 1;
  ASSERT_EQ(spec.validate(), "");
  asp::ProofLog log;
  dse::ContextOptions o;
  o.objective_floors = false;
  o.proof = &log;
  const dse::SynthContext ctx(spec, o);
  const auto inputs = input_clauses(log.take_text());
  const auto& bind = ctx.encoding.bind_atom;  // option 0: p0, option 1: p1
  auto lit = [&](TaskId t, std::size_t i) { return ctx.encoding.lit(bind[t][i]); };
  EXPECT_TRUE(refuses_pair(inputs, lit(0, 0), lit(1, 1)));
  EXPECT_TRUE(refuses_pair(inputs, lit(0, 1), lit(1, 0)));
  EXPECT_FALSE(refuses_pair(inputs, lit(0, 0), lit(1, 0)));
}

TEST(Encoder, ProofLoggedContextBuildsNoFloor) {
  const Specification spec = test::chain3_bus();
  const dse::SynthContext plain(spec);
  ASSERT_TRUE(plain.encoding.energy_floor_sum.has_value());
  ASSERT_EQ(plain.objectives.name(1), "energy");
  EXPECT_EQ(plain.objectives.term(1).floor_sum(), plain.encoding.energy_floor_sum);

  // Floors requested, and still none: the proof log decides.
  asp::ProofLog log;
  dse::ContextOptions o;
  o.proof = &log;
  const dse::SynthContext certified(spec, o);
  EXPECT_FALSE(certified.encoding.energy_floor_sum.has_value());
  EXPECT_FALSE(certified.objectives.term(1).floor_sum().has_value());
  // Only cost and energy are declared sums.
  std::istringstream lines(log.take_text());
  std::size_t sums = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("S ", 0) == 0) ++sums;
  }
  EXPECT_EQ(sums, 2U);
}

TEST(Encoder, FloorsWithoutCopairTermsRegisterNoFloor) {
  // two_proc_bus with energy-free links: no endpoint pair's cheapest path
  // costs energy, so a floor would be energy's task terms alone.
  Specification spec;
  const ResourceId bus = spec.add_resource("bus", ResourceKind::Bus, 1);
  const ResourceId p0 = spec.add_resource("p0", ResourceKind::Processor, 10);
  const ResourceId p1 = spec.add_resource("p1", ResourceKind::Processor, 5);
  for (const ResourceId p : {p0, p1}) {
    spec.add_link(p, bus, 1, 0);
    spec.add_link(bus, p, 1, 0);
  }
  const TaskId a = spec.add_task("a");
  const TaskId b = spec.add_task("b");
  spec.add_message("m", a, b, 2);
  spec.add_mapping(a, p0, 3, 4);
  spec.add_mapping(a, p1, 6, 2);
  spec.add_mapping(b, p0, 2, 3);
  spec.add_mapping(b, p1, 4, 1);
  const dse::SynthContext ctx(spec);
  EXPECT_FALSE(ctx.encoding.energy_floor_sum.has_value());
  EXPECT_FALSE(ctx.objectives.term(1).floor_sum().has_value());
}

}  // namespace
}  // namespace aspmt::synth
