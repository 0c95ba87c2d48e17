#include "synth/spec.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace aspmt::synth {
namespace {

/// Two processors on a bus; one producer/consumer pair.
Specification tiny_spec() {
  Specification s;
  const ResourceId bus = s.add_resource("bus", ResourceKind::Bus, 1);
  const ResourceId p0 = s.add_resource("p0", ResourceKind::Processor, 10);
  const ResourceId p1 = s.add_resource("p1", ResourceKind::Processor, 5);
  s.add_link(p0, bus, 1, 1);
  s.add_link(bus, p0, 1, 1);
  s.add_link(p1, bus, 1, 1);
  s.add_link(bus, p1, 1, 1);
  const TaskId a = s.add_task("a");
  const TaskId b = s.add_task("b");
  s.add_message("m", a, b, 2);
  s.add_mapping(a, p0, 3, 4);
  s.add_mapping(a, p1, 6, 2);
  s.add_mapping(b, p0, 2, 3);
  s.add_mapping(b, p1, 4, 1);
  return s;
}

TEST(Spec, BuildersPopulateViews) {
  const Specification s = tiny_spec();
  EXPECT_EQ(s.tasks().size(), 2U);
  EXPECT_EQ(s.messages().size(), 1U);
  EXPECT_EQ(s.resources().size(), 3U);
  EXPECT_EQ(s.links().size(), 4U);
  EXPECT_EQ(s.mappings().size(), 4U);
  EXPECT_EQ(s.mappings_of(0).size(), 2U);
  EXPECT_EQ(s.links_from(1).size(), 1U);  // p0 -> bus
}

TEST(Spec, HopDistances) {
  const Specification s = tiny_spec();
  const auto d = s.hop_distances();
  EXPECT_EQ(d[1][1], 0U);
  EXPECT_EQ(d[1][0], 1U);  // p0 -> bus
  EXPECT_EQ(d[1][2], 2U);  // p0 -> bus -> p1
}

TEST(Spec, UnreachableDistance) {
  Specification s;
  s.add_resource("x", ResourceKind::Processor, 1);
  s.add_resource("y", ResourceKind::Processor, 1);
  const auto d = s.hop_distances();
  EXPECT_EQ(d[0][1], Specification::kUnreachable);
}

TEST(Spec, EffectiveMaxHopsAuto) {
  const Specification s = tiny_spec();
  // Worst candidate pair: p0 <-> p1 at distance 2.
  EXPECT_EQ(s.effective_max_hops(), 2U);
}

TEST(Spec, EffectiveMaxHopsExplicitOverride) {
  Specification s = tiny_spec();
  s.max_hops = 5;
  EXPECT_EQ(s.effective_max_hops(), 5U);
}

TEST(Spec, ValidateAcceptsSoundSpec) {
  EXPECT_EQ(tiny_spec().validate(), "");
}

TEST(Spec, ValidateRejectsUnmappedTask) {
  Specification s;
  s.add_resource("p", ResourceKind::Processor, 1);
  s.add_task("lonely");
  EXPECT_NE(s.validate().find("no mapping option"), std::string::npos);
}

TEST(Spec, ValidateRejectsUnroutableMessage) {
  Specification s;
  const ResourceId p0 = s.add_resource("p0", ResourceKind::Processor, 1);
  const ResourceId p1 = s.add_resource("p1", ResourceKind::Processor, 1);
  // No links at all.
  const TaskId a = s.add_task("a");
  const TaskId b = s.add_task("b");
  s.add_message("m", a, b, 1);
  s.add_mapping(a, p0, 1, 1);
  s.add_mapping(b, p1, 1, 1);
  EXPECT_NE(s.validate().find("no routable"), std::string::npos);
}

TEST(Spec, ValidateAcceptsCoLocatedOnlyMessage) {
  Specification s;
  const ResourceId p0 = s.add_resource("p0", ResourceKind::Processor, 1);
  const TaskId a = s.add_task("a");
  const TaskId b = s.add_task("b");
  s.add_message("m", a, b, 1);
  s.add_mapping(a, p0, 1, 1);
  s.add_mapping(b, p0, 1, 1);
  EXPECT_EQ(s.validate(), "");
  EXPECT_EQ(s.effective_max_hops(), 0U);
}

// The builders check ids at runtime (no assert that NDEBUG removes): an
// unknown id throws and leaves the specification as it was.
TEST(Spec, BuildersRejectUnknownIds) {
  Specification s = tiny_spec();
  const Specification before = s;
  EXPECT_THROW(s.add_message("m", 0, 2), std::invalid_argument);
  EXPECT_THROW(s.add_message("m", 7, 0), std::invalid_argument);
  EXPECT_THROW(s.add_link(0, 3), std::invalid_argument);
  EXPECT_THROW(s.add_link(99, 0), std::invalid_argument);
  EXPECT_THROW(s.add_mapping(2, 0, 1, 1), std::invalid_argument);
  EXPECT_THROW(s.add_mapping(0, 3, 1, 1), std::invalid_argument);
  EXPECT_THROW(s.set_scenario_factor(0, 0, 2), std::invalid_argument);
  const std::size_t hot = s.add_scenario("hot");
  EXPECT_THROW(s.set_scenario_factor(hot, 3, 2), std::invalid_argument);
  EXPECT_EQ(s.messages().size(), before.messages().size());
  EXPECT_EQ(s.links().size(), before.links().size());
  EXPECT_EQ(s.mappings().size(), before.mappings().size());
  EXPECT_TRUE(s.scenarios().front().factor.empty());
}

}  // namespace
}  // namespace aspmt::synth
