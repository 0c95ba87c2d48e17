#include "dse/explorer.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "dse/context.hpp"
#include "dse/parallel_explorer.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace aspmt::dse {

void export_metrics(obs::MetricsRegistry& registry,
                    const ExploreResult& result) {
  const ExploreStats& s = result.stats;
  // Counter totals mirror ExploreStats exactly — test_obs holds the two
  // equal field-for-field.
  registry.counter("explore.models").set(s.models);
  registry.counter("explore.prunings").set(s.prunings);
  registry.counter("explore.conflicts").set(s.conflicts);
  registry.counter("explore.decisions").set(s.decisions);
  registry.counter("explore.propagations").set(s.propagations);
  registry.counter("explore.theory_clauses").set(s.theory_clauses);
  registry.counter("explore.archive_comparisons").set(s.archive_comparisons);
  registry.counter("explore.warm_seeds").set(s.warm_seeds);
  registry.counter("explore.warm_rejected").set(s.warm_rejected);
  registry.counter("explore.replayed_clauses").set(s.replayed_clauses);
  registry.counter("explore.clauses_imported").set(s.clauses_imported);
  registry.counter("explore.front_size").set(result.front.size());
  registry.gauge("explore.seconds").set(s.seconds);
  registry.gauge("explore.certify_tail_seconds").set(s.certify_tail_seconds);
  registry.gauge("explore.complete").set(s.complete ? 1.0 : 0.0);
  if (s.seconds > 0.0) {
    registry.gauge("explore.conflicts_per_sec")
        .set(static_cast<double>(s.conflicts) / s.seconds);
    registry.gauge("explore.propagations_per_sec")
        .set(static_cast<double>(s.propagations) / s.seconds);
    registry.gauge("explore.models_per_sec")
        .set(static_cast<double>(s.models) / s.seconds);
  }
}

ExploreResult explore(const synth::Specification& spec,
                      const ExploreOptions& options) {
  ParallelExploreOptions one;
  one.common = options.common;
  one.threads = 1;
  ParallelExploreResult run = detail::run_portfolio(spec, one, options.epsilon);
  ExploreResult result = std::move(run.base);
  // A contained exception ends the lone worker's run; report it ahead of the
  // degradations it caused (missing witnesses, the final checkpoint write).
  if (!run.worker_errors.empty()) {
    result.errors.insert(
        result.errors.begin(),
        "exploration aborted: " + run.worker_errors.front().message);
  }
  return result;
}

WitnessEnumeration enumerate_witnesses(const synth::Specification& spec,
                                       const pareto::Vec& point,
                                       std::size_t limit,
                                       double time_limit_seconds) {
  const util::Deadline deadline(time_limit_seconds);
  SynthContext ctx(spec, {});
  if (point.size() != ctx.objectives.count()) {
    throw std::invalid_argument(
        "point has " + std::to_string(point.size()) +
        " entries but the specification declares " +
        std::to_string(ctx.objectives.count()) + " objective axes");
  }
  // Pin every objective at the point (monotone tightening on a fresh
  // context is sound without activation literals).
  for (std::size_t o = 0; o < ctx.objectives.count(); ++o) {
    ctx.objectives.add_bound(o, point[o]);
  }
  WitnessEnumeration result;
  while (result.implementations.size() < limit) {
    const asp::Solver::Result r = ctx.solver.solve({}, &deadline);
    if (r != asp::Solver::Result::Sat) {
      result.complete = (r == asp::Solver::Result::Unsat);
      return result;
    }
    // With f <= p and p Pareto-optimal, equality is forced.
    if (ctx.capture().vector() != point) {
      throw std::invalid_argument(
          pareto::to_string(point) + " is not Pareto-optimal: " +
          pareto::to_string(ctx.capture().vector()) + " dominates it");
    }
    result.implementations.push_back(ctx.capture().implementation());
    if (!ctx.block_model()) {
      result.complete = true;
      return result;
    }
  }
  return result;  // limit reached; completeness unknown
}

}  // namespace aspmt::dse
