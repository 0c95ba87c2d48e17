// Parallel portfolio scaling — wall-clock to the exact front at 1/2/4/8
// workers on Table-2-class instances, plus the cross-thread-count front
// identity check (the method is exact; any mismatch is a bug and exits 1).
//
// Select instances with ASPMT_SCALING_INSTANCES (comma-separated suite
// names, default "S06,S07,S09"); the per-method time limit comes from
// ASPMT_BENCH_TIMEOUT as everywhere else.  Note that on a single-core
// container the portfolio can only win algorithmically (diversified
// searches sharing one archive shrink total work), not by using more
// hardware — interpret speedups together with the machine's core count.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "suite.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::string> selected_instances() {
  std::string csv = "S06,S07,S09";
  if (const char* env = std::getenv("ASPMT_SCALING_INSTANCES"); env != nullptr) {
    csv = env;
  }
  std::vector<std::string> names;
  std::istringstream iss(csv);
  std::string part;
  while (std::getline(iss, part, ',')) {
    if (!part.empty()) names.push_back(part);
  }
  return names;
}

}  // namespace

int main() {
  using namespace aspmt;
  const double limit = bench::method_time_limit();
  const std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  std::cout << "Parallel scaling: time to the exact front (limit "
            << util::fmt(limit, 1) << "s per run, "
            << std::thread::hardware_concurrency() << " hardware threads)\n\n";

  bench::Report report("parallel_scaling");
  report.metric("time_limit_s", limit);
  report.metric("hardware_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
  util::Table table({"inst", "|front|", "seq[s]", "p1[s]", "p2[s]", "p4[s]",
                     "p8[s]", "speedup@4"});
  bool any_mismatch = false;
  for (const auto& entry : bench::standard_suite()) {
    const auto names = selected_instances();
    if (std::find(names.begin(), names.end(), entry.name) == names.end()) {
      continue;
    }
    const synth::Specification spec = gen::generate(entry.config);

    dse::ExploreOptions seq_opts;
    seq_opts.common.time_limit_seconds = limit;
    const dse::ExploreResult seq = dse::explore(spec, seq_opts);

    std::vector<std::string> row{
        entry.name,
        util::fmt(static_cast<long long>(seq.front.size())),
        seq.stats.complete ? util::fmt(seq.stats.seconds, 3)
                           : std::string("t/o")};
    double t1 = -1.0;
    double t4 = -1.0;
    for (const std::size_t n : thread_counts) {
      dse::ParallelExploreOptions popts;
      popts.threads = n;
      popts.common.time_limit_seconds = limit;
      const dse::ParallelExploreResult par = dse::explore_parallel(spec, popts);
      if (seq.stats.complete && par.base.stats.complete &&
          par.base.front != seq.front) {
        std::cerr << "FRONT MISMATCH on " << entry.name << " at " << n
                  << " threads\n";
        any_mismatch = true;
      }
      row.push_back(par.base.stats.complete ? util::fmt(par.base.stats.seconds, 3)
                                       : std::string("t/o"));
      if (n == 1 && par.base.stats.complete) t1 = par.base.stats.seconds;
      if (n == 4 && par.base.stats.complete) t4 = par.base.stats.seconds;
      report.metric(
          entry.name + ".p" + util::fmt(static_cast<long long>(n)) + "_s",
          par.base.stats.seconds);
    }
    report.metric(entry.name + ".seq_s", seq.stats.seconds);
    report.metric(entry.name + ".front_size",
                  static_cast<double>(seq.front.size()));
    row.push_back(t1 > 0.0 && t4 > 0.0 ? util::fmt(t1 / t4, 2) + "x"
                                       : std::string("-"));
    table.add_row(row);
  }
  table.print(std::cout);
  if (any_mismatch) return 1;
  std::cout << "\nall completed runs agree on every front\n";
  const std::string path = report.write();
  std::cout << "wrote " << (path.empty() ? "(failed)" : path) << "\n";
  return 0;
}
