// Deterministic synthetic specification generator.
//
// Produces the benchmark families of the evaluation: layered task-graph
// applications mapped onto shared-bus or mesh-NoC architectures with
// heterogeneous processors (fast-but-hungry vs. slow-but-frugal, cheap vs.
// expensive) — the parameter space that controls instance hardness in the
// paper series.  Fully reproducible from a single seed.
#pragma once

#include <cstdint>
#include <string>

#include "synth/spec.hpp"

namespace aspmt::gen {

enum class Architecture : std::uint8_t {
  SharedBus,  ///< N processors on one bus
  Mesh2x2,    ///< 4 routers in a grid, one processor each
  Mesh3x3,    ///< 9 routers in a grid, one processor each
};

struct GeneratorConfig {
  std::uint64_t seed = 1;
  std::uint32_t tasks = 6;            ///< total, split across applications
  std::uint32_t applications = 1;     ///< independent task graphs sharing the platform
  std::uint32_t layers = 3;           ///< depth of each layered DAG
  double extra_edge_density = 0.15;   ///< probability of additional cross edges
  Architecture architecture = Architecture::SharedBus;
  std::uint32_t bus_processors = 3;   ///< processor count for SharedBus
  std::uint32_t options_per_task = 2; ///< mapping options sampled per task
  std::int64_t payload_min = 1;
  std::int64_t payload_max = 3;
  std::int64_t work_min = 2;          ///< abstract work units per task
  std::int64_t work_max = 8;
};

/// Number of processors the architecture provides.
[[nodiscard]] std::uint32_t processor_count(const GeneratorConfig& config);

/// Generate a specification; the result always satisfies
/// Specification::validate().  An out-of-range config (no tasks, layers,
/// applications, options or bus processors; an empty or negative payload
/// or work range) throws std::invalid_argument naming the field.
[[nodiscard]] synth::Specification generate(const GeneratorConfig& config);

/// Human-readable one-line summary ("T=6 M=5 arch=mesh2x2 |R|=8 ...").
[[nodiscard]] std::string summarize(const synth::Specification& spec);

}  // namespace aspmt::gen
