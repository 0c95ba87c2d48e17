#include "gen/generator.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace aspmt::gen {

namespace {

using synth::ResourceId;
using synth::ResourceKind;
using synth::Specification;
using synth::TaskId;

/// Heterogeneity profile of one processor.
struct ProcessorProfile {
  std::int64_t speed;       ///< wcet = work * speed
  std::int64_t energy_per_work;
  std::int64_t cost;
};

ProcessorProfile sample_processor(util::Rng& rng) {
  // Fast processors are expensive and (mostly) hungrier — the classic
  // latency/energy/cost tension that makes fronts non-trivial.
  const std::int64_t speed = rng.range(1, 3);           // 1 = fast
  const std::int64_t epw = rng.range(1, 3) + (3 - speed);
  const std::int64_t cost = 4 * (4 - speed) + rng.range(0, 5);
  return ProcessorProfile{speed, epw, cost};
}

struct BuiltArchitecture {
  std::vector<ResourceId> processors;
  std::vector<ProcessorProfile> profiles;
};

void add_bidirectional(Specification& spec, ResourceId a, ResourceId b,
                       std::int64_t delay, std::int64_t energy) {
  spec.add_link(a, b, delay, energy);
  spec.add_link(b, a, delay, energy);
}

BuiltArchitecture build_architecture(const GeneratorConfig& config,
                                     Specification& spec, util::Rng& rng) {
  BuiltArchitecture arch;
  switch (config.architecture) {
    case Architecture::SharedBus: {
      const ResourceId bus = spec.add_resource("bus", ResourceKind::Bus, 3);
      for (std::uint32_t p = 0; p < config.bus_processors; ++p) {
        const ProcessorProfile prof = sample_processor(rng);
        std::string name = "p";
        name += std::to_string(p);
        const ResourceId r =
            spec.add_resource(std::move(name), ResourceKind::Processor, prof.cost);
        add_bidirectional(spec, r, bus, 1, 1);
        arch.processors.push_back(r);
        arch.profiles.push_back(prof);
      }
      break;
    }
    case Architecture::Mesh2x2:
    case Architecture::Mesh3x3: {
      const std::uint32_t k = config.architecture == Architecture::Mesh2x2 ? 2 : 3;
      std::vector<std::vector<ResourceId>> router(k, std::vector<ResourceId>(k));
      for (std::uint32_t y = 0; y < k; ++y) {
        for (std::uint32_t x = 0; x < k; ++x) {
          std::string name = "r";
          name += std::to_string(x);
          name += std::to_string(y);
          router[y][x] = spec.add_resource(std::move(name), ResourceKind::Router, 2);
        }
      }
      for (std::uint32_t y = 0; y < k; ++y) {
        for (std::uint32_t x = 0; x < k; ++x) {
          if (x + 1 < k) add_bidirectional(spec, router[y][x], router[y][x + 1], 1, 1);
          if (y + 1 < k) add_bidirectional(spec, router[y][x], router[y + 1][x], 1, 1);
          const ProcessorProfile prof = sample_processor(rng);
          std::string name = "p";
          name += std::to_string(x);
          name += std::to_string(y);
          const ResourceId p =
              spec.add_resource(std::move(name), ResourceKind::Processor, prof.cost);
          add_bidirectional(spec, p, router[y][x], 1, 1);
          arch.processors.push_back(p);
          arch.profiles.push_back(prof);
        }
      }
      break;
    }
  }
  return arch;
}

/// The runtime check on a caller's config: throws std::invalid_argument
/// naming the first field out of range.
void check_config(const GeneratorConfig& c) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("generator config: ") + what);
  };
  require(c.tasks >= 1, "tasks must be at least 1");
  require(c.applications >= 1, "applications must be at least 1");
  require(c.layers >= 1, "layers must be at least 1");
  require(c.options_per_task >= 1, "options_per_task must be at least 1");
  require(c.architecture != Architecture::SharedBus || c.bus_processors >= 1,
          "bus_processors must be at least 1");
  require(c.payload_min >= 0 && c.payload_min <= c.payload_max,
          "payload_min..payload_max must be a non-negative range");
  require(c.work_min >= 1 && c.work_min <= c.work_max,
          "work_min..work_max must be a positive range");
}

}  // namespace

std::uint32_t processor_count(const GeneratorConfig& config) {
  switch (config.architecture) {
    case Architecture::SharedBus:
      return config.bus_processors;
    case Architecture::Mesh2x2:
      return 4;
    case Architecture::Mesh3x3:
      return 9;
  }
  return 0;
}

synth::Specification generate(const GeneratorConfig& config) {
  check_config(config);
  util::Rng rng(config.seed);
  Specification spec;

  const BuiltArchitecture arch = build_architecture(config, spec, rng);
  const std::size_t P = arch.processors.size();

  // One layered DAG per application, all sharing the platform.  Tasks are
  // split round-robin-contiguously across applications.
  const std::uint32_t apps = std::min(config.applications, config.tasks);
  std::vector<TaskId> tasks;
  std::vector<std::uint32_t> layer_of;
  std::vector<std::uint32_t> app_of;
  std::uint32_t msg_count = 0;
  auto add_msg = [&](TaskId a, TaskId b) {
    std::string name = "m";
    name += std::to_string(msg_count++);
    spec.add_message(std::move(name), a, b,
                     rng.range(config.payload_min, config.payload_max));
  };
  std::uint32_t created = 0;
  for (std::uint32_t app = 0; app < apps; ++app) {
    const std::uint32_t count =
        config.tasks / apps + (app < config.tasks % apps ? 1 : 0);
    const std::uint32_t layers = std::min(config.layers, count);
    const std::uint32_t base = created;
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = "a";
      name += std::to_string(app);
      name += 't';
      name += std::to_string(i);
      tasks.push_back(spec.add_task(std::move(name)));
      layer_of.push_back(static_cast<std::uint32_t>(
          (static_cast<std::uint64_t>(i) * layers) / count));
      app_of.push_back(app);
      ++created;
    }
    // Every non-first-layer task consumes from the previous layer.
    for (std::uint32_t t = base; t < created; ++t) {
      if (layer_of[t] == 0) continue;
      std::vector<TaskId> candidates;
      for (std::uint32_t s = base; s < created; ++s) {
        if (layer_of[s] == layer_of[t] - 1) candidates.push_back(s);
      }
      assert(!candidates.empty());
      add_msg(candidates[rng.below(candidates.size())], t);
    }
    // Extra forward edges within the application.
    for (std::uint32_t s = base; s < created; ++s) {
      for (std::uint32_t t = s + 1; t < created; ++t) {
        if (layer_of[s] < layer_of[t] && rng.chance(config.extra_edge_density)) {
          add_msg(s, t);
        }
      }
    }
  }

  // Mapping options: distinct processors per task.
  const std::uint32_t per_task =
      std::min<std::uint32_t>(config.options_per_task, static_cast<std::uint32_t>(P));
  for (std::uint32_t t = 0; t < config.tasks; ++t) {
    const std::int64_t work = rng.range(config.work_min, config.work_max);
    std::vector<std::size_t> procs(P);
    for (std::size_t i = 0; i < P; ++i) procs[i] = i;
    // deterministic partial shuffle
    for (std::uint32_t i = 0; i < per_task; ++i) {
      const std::size_t j = i + rng.below(P - i);
      std::swap(procs[i], procs[j]);
    }
    for (std::uint32_t i = 0; i < per_task; ++i) {
      const ProcessorProfile& prof = arch.profiles[procs[i]];
      spec.add_mapping(tasks[t], arch.processors[procs[i]],
                       work * prof.speed, work * prof.energy_per_work);
    }
  }

  assert(spec.validate().empty());  // follows from check_config
  return spec;
}

std::string summarize(const synth::Specification& spec) {
  std::ostringstream os;
  std::size_t procs = 0;
  for (const auto& r : spec.resources()) {
    if (r.kind == synth::ResourceKind::Processor) ++procs;
  }
  os << "T=" << spec.tasks().size() << " M=" << spec.messages().size()
     << " R=" << spec.resources().size() << " (P=" << procs << ")"
     << " L=" << spec.links().size() << " opts=" << spec.mappings().size()
     << " H=" << spec.effective_max_hops();
  return os.str();
}

}  // namespace aspmt::gen
