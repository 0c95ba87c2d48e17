// Multicore PPA benchmark family.
//
// Models the core-configuration design space of an embedded multicore: a
// catalog of candidate cores — big/little microarchitecture × pipeline
// depth × cache configuration — hangs off one shared bus, and the explorer
// decides which candidates to instantiate by binding tasks to them.  The
// classic PPA triple maps onto the base metrics: Performance = makespan
// latency, Power = execution + communication energy, Area = summed cost of
// the *instantiated* cores (unused catalog entries charge nothing).
//
// Knob physics (small integer factors, deterministic from the seed):
//   - big cores execute a work unit faster than little ones but burn more
//     energy per unit and occupy more area;
//   - each pipeline-depth step shaves compute cycles and adds both energy
//     (deeper speculation) and area;
//   - each cache level shaves memory cycles and adds area plus a small
//     leakage-energy term.
//
// The family also declares a "throttle" energy scenario (thermal capping
// inflates the effective energy of big cores) and, by default, combinator
// Pareto axes, so generated instances exercise the ObjectiveTerm tree —
// lex packing, scenario sums, certified replay — end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "synth/spec.hpp"

namespace aspmt::gen {

struct MulticoreConfig {
  std::uint64_t seed = 1;
  std::uint32_t tasks = 6;
  std::uint32_t layers = 3;          ///< depth of the layered task DAG
  double extra_edge_density = 0.15;  ///< probability of additional cross edges
  std::uint32_t big_cores = 1;       ///< big catalog slots
  std::uint32_t little_cores = 2;    ///< little catalog slots
  std::uint32_t pipeline_depths = 2; ///< depth variants per slot (>= 1)
  std::uint32_t cache_levels = 2;    ///< cache variants per slot (>= 1)
  /// Mapping options sampled per task; 0 = one option on every core variant.
  std::uint32_t options_per_task = 0;
  std::int64_t payload_min = 1;
  std::int64_t payload_max = 3;
  std::int64_t work_min = 2;         ///< abstract work units per task
  std::int64_t work_max = 8;
  std::int64_t throttle_factor = 3;  ///< big-core energy factor under "throttle"
  /// Pareto axes as objective-expression strings (README syntax).  Empty
  /// declares the recommended combinator axes {"lex(latency,energy)",
  /// "cost"}; pass {"latency","energy","cost"} for the classic triple.
  std::vector<std::string> axes;
};

/// Size of the core catalog: (big + little slots) * depths * cache levels.
[[nodiscard]] std::uint32_t core_variant_count(const MulticoreConfig& config);

/// Generate a multicore PPA specification.  The result always satisfies
/// Specification::validate(); a malformed or non-validating axis expression
/// throws std::invalid_argument naming the offending axis, and an
/// out-of-range config field (a count or factor below 1, an empty or
/// negative payload or work range) one naming the field.
[[nodiscard]] synth::Specification generate_multicore(const MulticoreConfig& config);

}  // namespace aspmt::gen
