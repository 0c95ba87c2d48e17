#include "gen/generator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "gen/multicore.hpp"

namespace aspmt::gen {
namespace {

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig c;
  c.seed = 42;
  c.tasks = 8;
  const auto a = generate(c);
  const auto b = generate(c);
  EXPECT_EQ(summarize(a), summarize(b));
  ASSERT_EQ(a.mappings().size(), b.mappings().size());
  for (std::size_t i = 0; i < a.mappings().size(); ++i) {
    EXPECT_EQ(a.mappings()[i].resource, b.mappings()[i].resource);
    EXPECT_EQ(a.mappings()[i].wcet, b.mappings()[i].wcet);
    EXPECT_EQ(a.mappings()[i].energy, b.mappings()[i].energy);
  }
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig c1;
  c1.seed = 1;
  c1.tasks = 10;
  GeneratorConfig c2 = c1;
  c2.seed = 2;
  // Either the structure or the numbers must differ somewhere.
  const auto a = generate(c1);
  const auto b = generate(c2);
  bool differs = a.messages().size() != b.messages().size() ||
                 a.mappings().size() != b.mappings().size();
  if (!differs) {
    for (std::size_t i = 0; i < a.mappings().size(); ++i) {
      if (a.mappings()[i].wcet != b.mappings()[i].wcet ||
          a.mappings()[i].resource != b.mappings()[i].resource) {
        differs = true;
        break;
      }
    }
  }
  EXPECT_TRUE(differs);
}

class EveryArchitecture : public ::testing::TestWithParam<Architecture> {};

TEST_P(EveryArchitecture, GeneratesValidSpecs) {
  GeneratorConfig c;
  c.architecture = GetParam();
  c.tasks = 7;
  c.seed = 11;
  c.options_per_task = 3;
  const auto spec = generate(c);
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(spec.tasks().size(), 7U);
  // Layered DAG: at least tasks - first layer messages exist.
  EXPECT_GE(spec.messages().size(), 4U);
}

INSTANTIATE_TEST_SUITE_P(Archs, EveryArchitecture,
                         ::testing::Values(Architecture::SharedBus,
                                           Architecture::Mesh2x2,
                                           Architecture::Mesh3x3));

// An out-of-range config throws, naming the field, instead of yielding a
// specification validate() rejects or a degenerate one without tasks.
TEST(Generator, RejectsOutOfRangeConfigs) {
  const auto expect_rejected = [](const auto& run, const std::string& field) {
    try {
      (void)run();
      ADD_FAILURE() << field << ": no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  const struct {
    const char* field;
    void (*mutate)(GeneratorConfig&);
  } layered[] = {
      {"tasks", [](GeneratorConfig& c) { c.tasks = 0; }},
      {"applications", [](GeneratorConfig& c) { c.applications = 0; }},
      {"layers", [](GeneratorConfig& c) { c.layers = 0; }},
      {"options_per_task", [](GeneratorConfig& c) { c.options_per_task = 0; }},
      {"bus_processors", [](GeneratorConfig& c) { c.bus_processors = 0; }},
      {"payload_min", [](GeneratorConfig& c) { c.payload_min = -1; }},
      {"payload_min", [](GeneratorConfig& c) { c.payload_max = 0; }},
      {"work_min", [](GeneratorConfig& c) { c.work_min = 0; }},
      {"work_min", [](GeneratorConfig& c) { c.work_max = 1; }},
  };
  for (const auto& k : layered) {
    GeneratorConfig c;
    k.mutate(c);
    expect_rejected([&] { return generate(c); }, k.field);
  }
  // Only the shared bus has a processor count to get wrong.
  GeneratorConfig mesh;
  mesh.architecture = Architecture::Mesh2x2;
  mesh.bus_processors = 0;
  EXPECT_EQ(generate(mesh).validate(), "");

  const struct {
    const char* field;
    void (*mutate)(MulticoreConfig&);
  } multicore[] = {
      {"tasks", [](MulticoreConfig& c) { c.tasks = 0; }},
      {"layers", [](MulticoreConfig& c) { c.layers = 0; }},
      {"big_cores + little_cores",
       [](MulticoreConfig& c) { c.big_cores = c.little_cores = 0; }},
      {"pipeline_depths", [](MulticoreConfig& c) { c.pipeline_depths = 0; }},
      {"cache_levels", [](MulticoreConfig& c) { c.cache_levels = 0; }},
      {"throttle_factor", [](MulticoreConfig& c) { c.throttle_factor = 0; }},
      {"payload_min", [](MulticoreConfig& c) { c.payload_min = 4; }},
      {"work_min", [](MulticoreConfig& c) { c.work_min = -2; }},
  };
  for (const auto& k : multicore) {
    MulticoreConfig c;
    k.mutate(c);
    expect_rejected([&] { return generate_multicore(c); }, k.field);
  }
}

TEST(Generator, ProcessorCounts) {
  GeneratorConfig c;
  c.architecture = Architecture::SharedBus;
  c.bus_processors = 5;
  EXPECT_EQ(processor_count(c), 5U);
  c.architecture = Architecture::Mesh2x2;
  EXPECT_EQ(processor_count(c), 4U);
  c.architecture = Architecture::Mesh3x3;
  EXPECT_EQ(processor_count(c), 9U);
}

TEST(Generator, OptionsPerTaskClampedToProcessors) {
  GeneratorConfig c;
  c.architecture = Architecture::SharedBus;
  c.bus_processors = 2;
  c.options_per_task = 10;
  c.tasks = 3;
  const auto spec = generate(c);
  for (synth::TaskId t = 0; t < spec.tasks().size(); ++t) {
    EXPECT_EQ(spec.mappings_of(t).size(), 2U);
    // Options must target distinct processors.
    EXPECT_NE(spec.mappings()[spec.mappings_of(t)[0]].resource,
              spec.mappings()[spec.mappings_of(t)[1]].resource);
  }
}

TEST(Generator, MessagesAreForwardEdges) {
  GeneratorConfig c;
  c.tasks = 12;
  c.layers = 4;
  c.extra_edge_density = 0.5;
  c.seed = 3;
  const auto spec = generate(c);
  // The generator only creates src < dst edges, so the graph is a DAG.
  for (const auto& m : spec.messages()) {
    EXPECT_LT(m.src, m.dst);
  }
}

TEST(Generator, DagAcyclicViaTopologicalCheck) {
  GeneratorConfig c;
  c.tasks = 10;
  c.layers = 3;
  c.seed = 9;
  const auto spec = generate(c);
  // src < dst for every message implies acyclicity; double-check the
  // layering property: consumer layer strictly above producer layer.
  EXPECT_EQ(spec.validate(), "");
}

TEST(Generator, MultipleApplicationsAreDisjointDags) {
  GeneratorConfig c;
  c.tasks = 9;
  c.applications = 3;
  c.layers = 2;
  c.seed = 21;
  const auto spec = generate(c);
  EXPECT_EQ(spec.validate(), "");
  EXPECT_EQ(spec.tasks().size(), 9U);
  // Task names carry their application; messages never cross applications.
  auto app_of = [&](synth::TaskId t) {
    return spec.tasks()[t].name.substr(0, 2);  // "a0", "a1", "a2"
  };
  for (const auto& m : spec.messages()) {
    EXPECT_EQ(app_of(m.src), app_of(m.dst));
  }
}

TEST(Generator, MultiAppStillExplorable) {
  GeneratorConfig c;
  c.tasks = 6;
  c.applications = 2;
  c.seed = 5;
  const auto spec = generate(c);
  EXPECT_EQ(spec.validate(), "");
}

TEST(Generator, SummaryMentionsKeyQuantities) {
  GeneratorConfig c;
  c.tasks = 5;
  const auto spec = generate(c);
  const std::string s = summarize(spec);
  EXPECT_NE(s.find("T=5"), std::string::npos);
  EXPECT_NE(s.find("H="), std::string::npos);
}

}  // namespace
}  // namespace aspmt::gen
