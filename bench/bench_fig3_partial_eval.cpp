// Figure 3 — ablation: partial assignment evaluation on/off.
//
// The DATE'17->'18 mechanism under test: with partial evaluation the
// objective bounds and the dominance propagator prune on *partial*
// assignments; without it they only reject total assignments.  Claim
// reproduced: disabling it inflates conflicts/models and runtime, with the
// gap widening on larger instances.
#include <iostream>

#include "dse/explorer.hpp"
#include "suite.hpp"
#include "util/table.hpp"

int main() {
  using namespace aspmt;
  const double limit = bench::method_time_limit();
  std::cout << "Figure 3: partial assignment evaluation ablation (limit "
            << util::fmt(limit, 1) << "s)\n\n";
  bench::Report report("fig3_partial_eval");
  report.metric("time_limit_s", limit);
  util::Table table({"inst", "pe[s]", "pe models", "pe conflicts", "nope[s]",
                     "nope models", "nope conflicts", "slowdown"});
  for (const auto& entry : bench::standard_suite()) {
    const synth::Specification spec = gen::generate(entry.config);
    dse::ExploreOptions on;
    on.common.time_limit_seconds = limit;
    dse::ExploreOptions off = on;
    off.common.partial_evaluation = false;

    const dse::ExploreResult with_pe = dse::explore(spec, on);
    const dse::ExploreResult without_pe = dse::explore(spec, off);

    auto cell = [&](bool complete, double seconds) {
      return complete ? util::fmt(seconds, 3) : std::string("t/o");
    };
    std::string slowdown = "-";
    if (with_pe.stats.complete && without_pe.stats.complete &&
        with_pe.stats.seconds > 0.0) {
      slowdown = util::fmt(without_pe.stats.seconds / with_pe.stats.seconds, 1) + "x";
    } else if (with_pe.stats.complete && !without_pe.stats.complete) {
      slowdown = '>';
      slowdown += util::fmt(limit / std::max(with_pe.stats.seconds, 1e-3), 1);
      slowdown += 'x';
    }
    table.add_row({entry.name, cell(with_pe.stats.complete, with_pe.stats.seconds),
                   util::fmt(static_cast<long long>(with_pe.stats.models)),
                   util::fmt(static_cast<long long>(with_pe.stats.conflicts)),
                   cell(without_pe.stats.complete, without_pe.stats.seconds),
                   util::fmt(static_cast<long long>(without_pe.stats.models)),
                   util::fmt(static_cast<long long>(without_pe.stats.conflicts)),
                   slowdown});
    if (with_pe.stats.complete && without_pe.stats.complete &&
        with_pe.front != without_pe.front) {
      std::cerr << "FRONT MISMATCH on " << entry.name << "\n";
      return 1;
    }
    report.metric(entry.name + ".pe_s", with_pe.stats.seconds);
    report.metric(entry.name + ".pe_conflicts",
                  static_cast<double>(with_pe.stats.conflicts));
    report.metric(entry.name + ".nope_s", without_pe.stats.seconds);
    report.metric(entry.name + ".nope_conflicts",
                  static_cast<double>(without_pe.stats.conflicts));
  }
  table.print(std::cout);
  std::cout << "\nfronts agree wherever both configurations completed\n";
  const std::string path = report.write();
  std::cout << "wrote " << (path.empty() ? "(failed)" : path) << "\n";
  return 0;
}
