// Shared miniature specifications for the synthesis / DSE tests, and the
// shape postcondition every explorer result must meet.
#pragma once

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/explorer.hpp"
#include "pareto/point.hpp"
#include "synth/spec.hpp"
#include "synth/validator.hpp"

namespace aspmt::test {

/// The postcondition on an explorer result, whichever path produced it: the
/// front is strictly sorted (so duplicate-free), every point has one entry
/// per Pareto axis, no point weakly dominates another, and every witness
/// validates and recomputes to its point.
inline void expect_front_shape(const synth::Specification& spec,
                               const dse::ExploreResult& r) {
  const std::vector<pareto::Vec>& front = r.front;
  for (std::size_t i = 0; i + 1 < front.size(); ++i) {
    EXPECT_LT(front[i], front[i + 1]) << "front not strictly sorted at " << i;
  }
  for (const pareto::Vec& p : front) {
    // The dominance check below compares axis by axis without a length check.
    ASSERT_EQ(p.size(), spec.axis_count()) << pareto::to_string(p);
  }
  for (const pareto::Vec& p : front) {
    for (const pareto::Vec& q : front) {
      if (&p != &q) {
        EXPECT_FALSE(pareto::weakly_dominates(q, p))
            << pareto::to_string(q) << " dominates " << pareto::to_string(p);
      }
    }
  }
  ASSERT_EQ(r.witnesses.size(), front.size());
  for (std::size_t i = 0; i < front.size(); ++i) {
    EXPECT_EQ(synth::validate_implementation(spec, r.witnesses[i]), "")
        << pareto::to_string(front[i]);
    EXPECT_EQ(synth::recompute_objectives(spec, r.witnesses[i]), front[i]);
  }
}

/// Two heterogeneous processors on one bus, producer -> consumer.
/// Small enough for exhaustive reasoning in tests.
inline synth::Specification two_proc_bus() {
  using namespace synth;
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
  s.add_mapping(a, p0, 3, 4);  // fast, hungry
  s.add_mapping(a, p1, 6, 2);  // slow, frugal
  s.add_mapping(b, p0, 2, 3);
  s.add_mapping(b, p1, 4, 1);
  return s;
}

/// Three-task chain over three bus-connected processors; enough freedom for
/// a non-trivial front but still exhaustively enumerable.
inline synth::Specification chain3_bus() {
  using namespace synth;
  Specification s;
  const ResourceId bus = s.add_resource("bus", ResourceKind::Bus, 2);
  const ResourceId p0 = s.add_resource("p0", ResourceKind::Processor, 12);
  const ResourceId p1 = s.add_resource("p1", ResourceKind::Processor, 7);
  const ResourceId p2 = s.add_resource("p2", ResourceKind::Processor, 4);
  for (const ResourceId p : {p0, p1, p2}) {
    s.add_link(p, bus, 1, 1);
    s.add_link(bus, p, 1, 1);
  }
  const TaskId a = s.add_task("a");
  const TaskId b = s.add_task("b");
  const TaskId c = s.add_task("c");
  s.add_message("m0", a, b, 1);
  s.add_message("m1", b, c, 2);
  s.add_mapping(a, p0, 2, 6);
  s.add_mapping(a, p1, 4, 3);
  s.add_mapping(b, p1, 3, 4);
  s.add_mapping(b, p2, 6, 2);
  s.add_mapping(c, p0, 2, 5);
  s.add_mapping(c, p2, 5, 1);
  return s;
}

/// Fork-join diamond (a -> b, a -> c, b -> d, c -> d) on two processors —
/// exercises resource serialization.
inline synth::Specification diamond_two_proc() {
  using namespace synth;
  Specification s;
  const ResourceId bus = s.add_resource("bus", ResourceKind::Bus, 1);
  const ResourceId p0 = s.add_resource("p0", ResourceKind::Processor, 8);
  const ResourceId p1 = s.add_resource("p1", ResourceKind::Processor, 6);
  for (const ResourceId p : {p0, p1}) {
    s.add_link(p, bus, 1, 1);
    s.add_link(bus, p, 1, 1);
  }
  const TaskId a = s.add_task("a");
  const TaskId b = s.add_task("b");
  const TaskId c = s.add_task("c");
  const TaskId d = s.add_task("d");
  s.add_message("ab", a, b, 1);
  s.add_message("ac", a, c, 1);
  s.add_message("bd", b, d, 1);
  s.add_message("cd", c, d, 1);
  for (const TaskId t : {a, b, c, d}) {
    s.add_mapping(t, p0, 2, 3);
    s.add_mapping(t, p1, 3, 2);
  }
  return s;
}

/// Single task, single processor: the smallest valid specification.
inline synth::Specification singleton() {
  using namespace synth;
  Specification s;
  const ResourceId p0 = s.add_resource("p0", ResourceKind::Processor, 3);
  const TaskId a = s.add_task("a");
  s.add_mapping(a, p0, 4, 2);
  return s;
}

/// examples/specs/bus_small.txt with the line `line` replaced by
/// `replacement`.
inline std::string edited_bus_small_text(const std::string& line,
                                         const std::string& replacement) {
  std::ifstream in(std::string(ASPMT_TEST_DATA_DIR) +
                   "/examples/specs/bus_small.txt");
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const std::size_t at = text.find(line);
  EXPECT_NE(at, std::string::npos) << "bus_small.txt changed";
  if (at != std::string::npos) text.replace(at, line.size(), replacement);
  return text;
}

/// bus_small with one mapping's energy made negative: the text parses, and
/// Specification::validate() rejects it.
inline std::string negative_energy_spec_text() {
  return edited_bus_small_text("map a0t0 p2 wcet=6 energy=9",
                               "map a0t0 p2 wcet=6 energy=-40");
}

/// bus_small with a message from a task to itself: the text parses, and
/// Specification::validate() rejects it.
inline std::string self_message_spec_text() {
  return edited_bus_small_text("message m0 a0t1 a0t2",
                               "message m0 a0t1 a0t1");
}

}  // namespace aspmt::test
