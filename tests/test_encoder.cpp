#include "synth/encoder.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace aspmt::synth
