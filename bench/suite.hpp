// The shared benchmark instance suite (Table 1) and common knobs.
//
// The instances form a difficulty ladder across the three generator
// architectures.  They are sized so that the ASPmT explorer finishes every
// instance within the per-method time limit on a laptop-class machine while
// the naive enumeration baseline starts timing out in the middle of the
// ladder — the shape the paper series reports.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "gen/generator.hpp"
#include "obs/metrics.hpp"

namespace aspmt::bench {

struct SuiteEntry {
  std::string name;
  gen::GeneratorConfig config;
};

/// S1..S10 ladder used by Tables 1/2 and Figure 3.
[[nodiscard]] std::vector<SuiteEntry> standard_suite();

/// Per-method time limit in seconds; override with ASPMT_BENCH_TIMEOUT.
[[nodiscard]] double method_time_limit();

/// Machine-readable result sink.  Every benchmark executable records its
/// headline numbers (wall time, conflicts/s, propagations/s, ...) here and
/// calls write(), which serializes them together with the peak RSS, the
/// git revision and the host (nproc, CPU, build type, compiler) to
/// `BENCH_<name>.json` so the perf trajectory of the repo can be tracked
/// across commits and machines.  The output directory defaults to the
/// working directory and can be redirected with ASPMT_BENCH_OUT.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  /// Record a numeric result, e.g. metric("bus.props_per_sec", 1.9e6).
  /// Every metric is mirrored into the report's metrics registry, so the
  /// embedded snapshot always covers at least the headline numbers.
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
    registry_.gauge(key).set(value);
  }

  /// Record a free-form annotation, e.g. note("build", "Release").
  void note(const std::string& key, const std::string& value) {
    notes_.emplace_back(key, value);
  }

  /// Record the concurrency shape of the benchmarked run: solver threads per
  /// process and worker process count.  Serialized as top-level "threads" /
  /// "processes" JSON fields on every report (defaults 1/1 for the
  /// single-process benches), so cross-commit comparisons can never conflate
  /// runs at different parallelism.
  void concurrency(std::size_t threads, std::size_t processes) {
    threads_ = threads;
    processes_ = processes;
  }

  /// Record per-shard wall times of a distributed run; serialized as the
  /// top-level "shard_wall_seconds" array (omitted when empty).
  void shard_seconds(std::vector<double> seconds) {
    shard_seconds_ = std::move(seconds);
  }

  /// The report's own metrics registry.  Point CommonOptions::metrics (or
  /// dse::export_metrics) at it and the full counter/gauge/histogram state
  /// is embedded in the JSON under "metrics_snapshot".
  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }

  /// Write BENCH_<name>.json; returns the path (empty on I/O failure).
  std::string write() const;

 private:
  std::string name_;
  std::size_t threads_ = 1;
  std::size_t processes_ = 1;
  std::vector<double> shard_seconds_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  obs::MetricsRegistry registry_;
};

/// Peak resident set size of this process in KiB (0 when unavailable).
[[nodiscard]] long peak_rss_kib();

/// Git revision the benchmark binary was built from: the ASPMT_GIT_REV
/// environment variable when set, else the configure-time `git rev-parse`
/// result baked into the binary, else "unknown".
[[nodiscard]] std::string git_rev();

}  // namespace aspmt::bench
