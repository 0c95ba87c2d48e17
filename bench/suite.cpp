#include "suite.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace aspmt::bench {

std::vector<SuiteEntry> standard_suite() {
  using gen::Architecture;
  std::vector<SuiteEntry> suite;
  auto add = [&](std::string name, std::uint64_t seed, std::uint32_t tasks,
                 Architecture arch, std::uint32_t options, std::uint32_t layers,
                 std::uint32_t bus_procs = 3) {
    gen::GeneratorConfig c;
    c.seed = seed;
    c.tasks = tasks;
    c.architecture = arch;
    c.options_per_task = options;
    c.layers = layers;
    c.bus_processors = bus_procs;
    suite.push_back(SuiteEntry{std::move(name), c});
  };
  add("S01", 101, 4, Architecture::SharedBus, 2, 2, 2);
  add("S02", 102, 5, Architecture::SharedBus, 2, 3, 3);
  add("S03", 103, 6, Architecture::SharedBus, 2, 3, 3);
  add("S04", 104, 5, Architecture::Mesh2x2, 2, 3);
  add("S05", 105, 6, Architecture::Mesh2x2, 2, 3);
  add("S06", 106, 8, Architecture::SharedBus, 3, 4, 4);
  add("S07", 107, 8, Architecture::Mesh2x2, 2, 4);
  add("S08", 108, 8, Architecture::Mesh3x3, 2, 4);
  add("S09", 110, 11, Architecture::Mesh3x3, 2, 5);
  add("S10", 110, 12, Architecture::Mesh3x3, 3, 5);
  return suite;
}

double method_time_limit() {
  if (const char* env = std::getenv("ASPMT_BENCH_TIMEOUT"); env != nullptr) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 40.0;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The machine the report was recorded on, as perfbench's reports record
/// it: online processors, the first "model name" of /proc/cpuinfo, and the
/// bench binary's build type and compiler.
std::string host_json() {
  long nproc = 0;
#if defined(__unix__) || defined(__APPLE__)
  nproc = sysconf(_SC_NPROCESSORS_ONLN);
#endif
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) continue;
    cpu = line.substr(colon + 1);
    cpu.erase(0, cpu.find_first_not_of(' '));
    break;
  }
  std::string json = "{\"nproc\": ";
  json += std::to_string(nproc);
  json += ", \"cpu_model\": \"";
  json += json_escape(cpu);
  json += "\", \"build_type\": \"";
  json += json_escape(ASPMT_BUILD_TYPE);
  json += "\", \"compiler\": \"";
  json += json_escape(ASPMT_COMPILER);
  json += "\"}";
  return json;
}

}  // namespace

long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // bytes on macOS
#else
    return usage.ru_maxrss;  // KiB on Linux
#endif
  }
#endif
  return 0;
}

std::string git_rev() {
  if (const char* env = std::getenv("ASPMT_GIT_REV"); env != nullptr && *env != '\0') {
    return env;
  }
#ifdef ASPMT_GIT_REV
  return ASPMT_GIT_REV;
#else
  return "unknown";
#endif
}

std::string Report::write() const {
  std::string dir = ".";
  if (const char* env = std::getenv("ASPMT_BENCH_OUT"); env != nullptr && *env != '\0') {
    dir = env;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort; open reports
  }
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out(path);
  if (!out) return {};
  out << "{\n";
  out << "  \"name\": \"" << json_escape(name_) << "\",\n";
  out << "  \"git_rev\": \"" << json_escape(git_rev()) << "\",\n";
  out << "  \"host\": " << host_json() << ",\n";
  out << "  \"peak_rss_kib\": " << peak_rss_kib() << ",\n";
  out << "  \"threads\": " << threads_ << ",\n";
  out << "  \"processes\": " << processes_ << ",\n";
  if (!shard_seconds_.empty()) {
    out << "  \"shard_wall_seconds\": [";
    for (std::size_t i = 0; i < shard_seconds_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << json_number(shard_seconds_[i]);
    }
    out << "],\n";
  }
  out << "  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(metrics_[i].first)
        << "\": " << json_number(metrics_[i].second);
  }
  out << (metrics_.empty() ? "" : "\n  ") << "},\n";
  out << "  \"notes\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(notes_[i].first)
        << "\": \"" << json_escape(notes_[i].second) << "\"";
  }
  out << (notes_.empty() ? "" : "\n  ") << "},\n";
  // Raw embed: MetricsRegistry::to_json() emits a complete JSON object.
  out << "  \"metrics_snapshot\": " << registry_.to_json() << "\n";
  out << "}\n";
  return out ? path : std::string{};
}

}  // namespace aspmt::bench
