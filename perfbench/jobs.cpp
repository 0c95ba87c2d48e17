#include "jobs.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

using aspmt::gen::Architecture;

Instance layered(std::string name, std::uint64_t seed, std::uint32_t tasks,
                 Architecture arch, std::uint32_t options, std::uint32_t layers,
                 std::uint32_t bus_processors) {
  Instance in;
  in.name = std::move(name);
  in.layered.seed = seed;
  in.layered.tasks = tasks;
  in.layered.architecture = arch;
  in.layered.options_per_task = options;
  in.layered.layers = layers;
  in.layered.bus_processors = bus_processors;
  return in;
}

// The multicore PPA platform of EXPERIMENTS.md (seed 11, 1 big + 2 little
// slots, 2 pipeline depths, 2 cache levels, 3 options per task) under one
// axis set.
Instance multicore(std::string name, std::uint32_t tasks,
                   std::vector<std::string> axes) {
  Instance in;
  in.name = std::move(name);
  in.multicore = true;
  in.platform.seed = 11;
  in.platform.tasks = tasks;
  in.platform.big_cores = 1;
  in.platform.little_cores = 2;
  in.platform.pipeline_depths = 2;
  in.platform.cache_levels = 2;
  in.platform.options_per_task = 3;
  in.platform.axes = std::move(axes);
  return in;
}

std::vector<Instance> catalog() {
  std::vector<Instance> all;
  // Table-2 ladder rungs (bench/suite.cpp), the tiny ones for the self-test.
  all.push_back(layered("S01", 101, 4, Architecture::SharedBus, 2, 2, 2));
  all.push_back(layered("S02", 102, 5, Architecture::SharedBus, 2, 3, 3));
  all.push_back(layered("S03", 103, 6, Architecture::SharedBus, 2, 3, 3));
  all.push_back(layered("S06", 106, 8, Architecture::SharedBus, 3, 4, 4));
  all.push_back(layered("S07", 107, 8, Architecture::Mesh2x2, 2, 4, 3));
  all.push_back(layered("S08", 108, 8, Architecture::Mesh3x3, 2, 4, 3));
  all.push_back(layered("S09", 110, 11, Architecture::Mesh3x3, 2, 5, 3));
  all.push_back(layered("S10", 110, 12, Architecture::Mesh3x3, 3, 5, 3));
  // The bench_distributed instance.
  all.push_back(layered("busT10", 88, 10, Architecture::SharedBus, 3, 3, 4));
  const std::vector<std::pair<std::string, std::vector<std::string>>> axes = {
      {"lex", {"lex(latency,energy)", "cost"}},
      {"minmax", {"minmax(latency,cost)", "worst(energy,energy@throttle)"}},
      {"weighted", {"weighted(2*energy+1*cost)", "latency"}},
      {"leaf4", {"latency", "energy", "cost", "energy@throttle"}},
  };
  for (const auto& [label, exprs] : axes) {
    all.push_back(multicore("mcT10-" + label, 10, exprs));
  }
  all.push_back(multicore("mcT4-lex", 4, axes[0].second));
  return all;
}

Job job(std::string instance, Mode mode, std::size_t threads = 1,
        std::size_t processes = 1, std::string axes = {}) {
  Job j;
  j.instance = std::move(instance);
  j.mode = mode;
  j.threads = threads;
  j.processes = processes;
  j.axes = std::move(axes);
  j.name = j.instance;
  if (mode == Mode::Portfolio) j.name += "@t" + std::to_string(threads);
  if (mode == Mode::Distributed) {
    j.name += "@" + std::to_string(processes) + "x" + std::to_string(threads);
  }
  return j;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"ladder", "certified", "parallel4", "multicore", "selftest"};
}

Workload find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ladder") {
    for (const char* s : {"S06", "S07", "S08", "S09", "S10"}) {
      w.jobs.push_back(job(s, Mode::Explore));
    }
  } else if (name == "certified") {
    for (const char* s : {"S06", "S07", "S08"}) {
      w.jobs.push_back(job(s, Mode::Certified));
    }
  } else if (name == "parallel4") {
    for (const char* s : {"S06", "S09", "busT10"}) {
      w.jobs.push_back(job(s, Mode::Portfolio, 4));
    }
    w.jobs.push_back(job("busT10", Mode::Distributed, 1, 4));
  } else if (name == "multicore") {
    for (const char* a : {"lex", "minmax", "weighted", "leaf4"}) {
      w.jobs.push_back(job(std::string("mcT10-") + a, Mode::Explore, 1, 1, a));
    }
  } else if (name == "selftest") {
    // One tiny job per mode, so every layer and every metric is exercised.
    w.jobs.push_back(job("S01", Mode::Explore));
    w.jobs.push_back(job("S02", Mode::Certified));
    w.jobs.push_back(job("S03", Mode::Portfolio, 2));
    w.jobs.push_back(job("S03", Mode::Distributed, 1, 2));
    w.jobs.push_back(job("mcT4-lex", Mode::Explore, 1, 1, "lex"));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

Instance find_instance(const std::string& name, std::uint64_t instance_seed) {
  for (Instance in : catalog()) {
    if (in.name != name) continue;
    in.layered.seed += 1000 * instance_seed;
    in.platform.seed += 1000 * instance_seed;
    return in;
  }
  throw std::invalid_argument("unknown instance '" + name + "'");
}

aspmt::synth::Specification generate(const Instance& instance) {
  return instance.multicore ? aspmt::gen::generate_multicore(instance.platform)
                            : aspmt::gen::generate(instance.layered);
}

std::string front_to_text(std::vector<aspmt::pareto::Vec> front) {
  std::sort(front.begin(), front.end());
  std::string out;
  for (const aspmt::pareto::Vec& p : front) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (i != 0) out += ' ';
      out += std::to_string(p[i]);
    }
    out += '\n';
  }
  return out;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::Explore: return "explore";
    case Mode::Certified: return "certified";
    case Mode::Portfolio: return "portfolio";
    case Mode::Distributed: return "distributed";
  }
  return "?";
}

}  // namespace perfbench
