// Workload definitions: the instances each workload runs, the jobs it makes
// of them, and the reference fronts every job is checked against.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generator.hpp"
#include "gen/multicore.hpp"
#include "pareto/point.hpp"
#include "synth/spec.hpp"

namespace perfbench {

enum class Mode {
  Explore,      ///< dse::explore, one thread, uncertified
  Certified,    ///< dse::explore with certify = true
  Portfolio,    ///< dse::explore_parallel at `threads`
  Distributed,  ///< dse::explore_distributed, `processes` x `threads`
};

/// One generated specification.  The reference front of every job on it is
/// stored as refs/<name>.front.
struct Instance {
  std::string name;
  bool multicore = false;
  aspmt::gen::GeneratorConfig layered;
  aspmt::gen::MulticoreConfig platform;
};

struct Job {
  std::string name;      ///< unique within its workload
  std::string instance;  ///< Instance::name
  Mode mode = Mode::Explore;
  std::size_t threads = 1;
  std::size_t processes = 1;
  std::string axes;  ///< multicore axis-set label (lex|minmax|weighted|leaf4)
};

struct Workload {
  std::string name;
  std::vector<Job> jobs;
};

/// The benchmark's workloads plus the tiny "selftest" one.  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload find_workload(const std::string& name);
[[nodiscard]] std::vector<std::string> workload_names();

/// Instance `name`.  `instance_seed` 0 reproduces the Table-2 / bench
/// instances; any other value shifts every generator seed, giving hold-out
/// instances of the same shape.  Throws std::invalid_argument when unknown.
[[nodiscard]] Instance find_instance(const std::string& name,
                                     std::uint64_t instance_seed);

/// Generate the instance's specification (gen::generate or
/// gen::generate_multicore).
[[nodiscard]] aspmt::synth::Specification generate(const Instance& instance);

/// Canonical text of a front: one point per line, coordinates separated by
/// single spaces, points in lexicographic order.  Reference files hold
/// exactly this text, so fronts compare byte for byte.
[[nodiscard]] std::string front_to_text(std::vector<aspmt::pareto::Vec> front);

[[nodiscard]] const char* mode_name(Mode mode);

}  // namespace perfbench
