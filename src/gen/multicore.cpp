#include "gen/multicore.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/rng.hpp"

namespace aspmt::gen {

namespace {

using synth::ResourceId;
using synth::ResourceKind;
using synth::Specification;
using synth::TaskId;

/// One entry of the core catalog with its derived per-work-unit factors.
struct CoreVariant {
  ResourceId res = 0;
  bool big = false;
  std::int64_t cycles = 1;  ///< wcet = work * cycles
  std::int64_t epw = 1;     ///< energy = work * epw
};

/// Microarchitecture baselines: {compute cycles, memory cycles, energy per
/// work unit, area} before the pipeline/cache knobs apply.
struct CoreBase {
  std::int64_t compute, mem, epw, area;
};

constexpr CoreBase kBig{2, 2, 4, 8};
constexpr CoreBase kLittle{5, 2, 1, 3};

void build_catalog(const MulticoreConfig& config, Specification& spec,
                   ResourceId bus, util::Rng& rng,
                   std::vector<CoreVariant>& catalog) {
  const std::uint32_t slots = config.big_cores + config.little_cores;
  for (std::uint32_t s = 0; s < slots; ++s) {
    const bool big = s < config.big_cores;
    const CoreBase& base = big ? kBig : kLittle;
    const std::uint32_t slot = big ? s : s - config.big_cores;
    for (std::uint32_t d = 0; d < config.pipeline_depths; ++d) {
      for (std::uint32_t c = 0; c < config.cache_levels; ++c) {
        CoreVariant v;
        v.big = big;
        // Deeper pipelines shave compute cycles, larger caches shave memory
        // cycles; both trade the saving against energy and area.
        const std::int64_t compute = std::max<std::int64_t>(1, base.compute - d);
        const std::int64_t mem = std::max<std::int64_t>(0, base.mem - c);
        v.cycles = compute + mem;
        v.epw = base.epw + d + c;
        const std::int64_t area = base.area + 2 * d + 3 * c + rng.range(0, 1);
        std::string name = big ? "big" : "lit";
        name += std::to_string(slot);
        name += 'd';
        name += std::to_string(d);
        name += 'c';
        name += std::to_string(c);
        v.res = spec.add_resource(name, ResourceKind::Processor, area);
        spec.add_link(v.res, bus, 1, 1);
        spec.add_link(bus, v.res, 1, 1);
        catalog.push_back(v);
      }
    }
  }
}

}  // namespace

std::uint32_t core_variant_count(const MulticoreConfig& config) {
  return (config.big_cores + config.little_cores) * config.pipeline_depths *
         config.cache_levels;
}

synth::Specification generate_multicore(const MulticoreConfig& config) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("multicore config: ") + what);
  };
  require(config.tasks >= 1, "tasks must be at least 1");
  require(config.layers >= 1, "layers must be at least 1");
  require(config.big_cores + config.little_cores >= 1,
          "big_cores + little_cores must be at least 1");
  require(config.pipeline_depths >= 1, "pipeline_depths must be at least 1");
  require(config.cache_levels >= 1, "cache_levels must be at least 1");
  require(config.throttle_factor >= 1, "throttle_factor must be at least 1");
  require(config.payload_min >= 0 && config.payload_min <= config.payload_max,
          "payload_min..payload_max must be a non-negative range");
  require(config.work_min >= 1 && config.work_min <= config.work_max,
          "work_min..work_max must be a positive range");
  util::Rng rng(config.seed);
  Specification spec;

  const ResourceId bus = spec.add_resource("bus", ResourceKind::Bus, 1);
  std::vector<CoreVariant> catalog;
  build_catalog(config, spec, bus, rng, catalog);
  const std::size_t V = catalog.size();

  // Thermal throttling: under the "throttle" scenario every energy
  // contribution attributed to a big core is inflated — robustness axes
  // (worst(energy, energy@throttle)) then prefer little-core designs whose
  // worst case degrades less.
  const std::size_t throttle = spec.add_scenario("throttle");
  for (const CoreVariant& v : catalog) {
    if (v.big) spec.set_scenario_factor(throttle, v.res, config.throttle_factor);
  }

  // One layered DAG: every non-first-layer task consumes from the previous
  // layer, plus random forward cross edges.
  std::vector<TaskId> tasks;
  std::vector<std::uint32_t> layer_of;
  const std::uint32_t layers = std::min(config.layers, config.tasks);
  std::uint32_t msg_count = 0;
  auto add_msg = [&](TaskId a, TaskId b) {
    std::string name = "m";
    name += std::to_string(msg_count++);
    spec.add_message(std::move(name), a, b,
                     rng.range(config.payload_min, config.payload_max));
  };
  for (std::uint32_t i = 0; i < config.tasks; ++i) {
    std::string name = "t";
    name += std::to_string(i);
    tasks.push_back(spec.add_task(std::move(name)));
    layer_of.push_back(static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(i) * layers) / config.tasks));
  }
  for (std::uint32_t t = 0; t < config.tasks; ++t) {
    if (layer_of[t] == 0) continue;
    std::vector<TaskId> candidates;
    for (std::uint32_t s = 0; s < config.tasks; ++s) {
      if (layer_of[s] == layer_of[t] - 1) candidates.push_back(s);
    }
    assert(!candidates.empty());
    add_msg(candidates[rng.below(candidates.size())], t);
  }
  for (std::uint32_t s = 0; s < config.tasks; ++s) {
    for (std::uint32_t t = s + 1; t < config.tasks; ++t) {
      if (layer_of[s] < layer_of[t] && rng.chance(config.extra_edge_density)) {
        add_msg(s, t);
      }
    }
  }

  // Mapping options: either the full catalog per task or a sampled subset
  // of distinct variants.
  const std::uint32_t per_task =
      config.options_per_task == 0
          ? static_cast<std::uint32_t>(V)
          : std::min<std::uint32_t>(config.options_per_task,
                                    static_cast<std::uint32_t>(V));
  for (std::uint32_t t = 0; t < config.tasks; ++t) {
    const std::int64_t work = rng.range(config.work_min, config.work_max);
    std::vector<std::size_t> order(V);
    for (std::size_t i = 0; i < V; ++i) order[i] = i;
    if (per_task < V) {
      for (std::uint32_t i = 0; i < per_task; ++i) {  // deterministic partial shuffle
        const std::size_t j = i + rng.below(V - i);
        std::swap(order[i], order[j]);
      }
    }
    for (std::uint32_t i = 0; i < per_task; ++i) {
      const CoreVariant& v = catalog[order[i]];
      spec.add_mapping(tasks[t], v.res, work * v.cycles, work * v.epw);
    }
  }

  // Pareto axes: user expressions, or the recommended combinator default
  // (latency-then-energy lexicographic vs. area).
  std::vector<std::string> axes = config.axes;
  if (axes.empty()) axes = {"lex(latency,energy)", "cost"};
  for (const std::string& text : axes) {
    synth::ObjectiveExpr expr;
    const std::string err = synth::parse_objective_expr(text, expr);
    if (!err.empty()) {
      throw std::invalid_argument("multicore axis '" + text + "': " + err);
    }
    spec.add_objective(std::move(expr));
  }
  const std::string err = spec.validate();
  if (!err.empty()) throw std::invalid_argument("multicore spec: " + err);
  return spec;
}

}  // namespace aspmt::gen
