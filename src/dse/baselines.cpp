#include "dse/baselines.hpp"

#include <algorithm>

#include "dse/context.hpp"
#include "dse/optimizer.hpp"
#include "util/timer.hpp"

namespace aspmt::dse {

BaselineResult enumerate_and_filter(const synth::Specification& spec,
                                    double time_limit_seconds) {
  util::Timer timer;
  const util::Deadline deadline(time_limit_seconds);
  ContextOptions copts;
  copts.archive_kind = "linear";  // archive stays empty: no dominance pruning
  SynthContext ctx(spec, copts);

  BaselineResult result;
  std::vector<pareto::Vec> vectors;
  for (;;) {
    const asp::Solver::Result r = ctx.solver.solve({}, &deadline);
    if (r == asp::Solver::Result::Sat) {
      ++result.models;
      vectors.push_back(ctx.capture().vector());
      if (!ctx.block_model()) {
        result.complete = true;
        break;
      }
      continue;
    }
    result.complete = (r == asp::Solver::Result::Unsat);
    break;
  }
  result.front = pareto::non_dominated_filter(std::move(vectors));
  result.conflicts = ctx.solver.stats().conflicts;
  result.seconds = timer.elapsed_seconds();
  return result;
}

namespace {

/// One lexicographic step: minimise every objective in turn, each under the
/// optimum of its predecessors.  `point` is the lexicographic minimum of the
/// remaining region when the step is feasible and proven.
struct LexStep {
  pareto::Vec point;
  bool feasible = true;
  bool proven = true;  ///< false only when the deadline cut a descent short
};

LexStep lexicographic_minimum(SynthContext& ctx,
                              const util::Deadline& deadline) {
  const std::size_t k = ctx.objectives.count();
  LexStep step{pareto::Vec(k, 0)};
  std::vector<asp::Lit> assumptions;
  for (std::size_t o = 0; o < k; ++o) {
    const MinimizeResult mr = minimize_objective(ctx, o, assumptions, &deadline);
    if (!mr.feasible) {
      step.feasible = false;
      step.proven = mr.proven;  // Unsat proves exhaustion; a timeout does not
      return step;
    }
    step.proven = step.proven && mr.proven;
    step.point[o] = mr.best;
  }
  return step;
}

/// Exclude the weakly dominated region of `point`: some objective must
/// improve strictly.  d_o  ->  objective_o <= point_o - 1.  False when that
/// leaves the problem unsatisfiable.
bool exclude_dominated(SynthContext& ctx, const pareto::Vec& point) {
  std::vector<asp::Lit> some_better;
  for (std::size_t o = 0; o < point.size(); ++o) {
    const asp::Lit d = asp::Lit::make(ctx.solver.new_var(), true);
    ctx.objectives.add_bound(o, point[o] - 1, d);
    some_better.push_back(d);
  }
  return ctx.solver.add_clause(std::move(some_better));
}

}  // namespace

BaselineResult lexicographic_epsilon(const synth::Specification& spec,
                                     double time_limit_seconds) {
  util::Timer timer;
  const util::Deadline deadline(time_limit_seconds);
  ContextOptions copts;
  copts.archive_kind = "linear";  // archive unused
  SynthContext ctx(spec, copts);

  BaselineResult result;
  for (;;) {
    if (deadline.expired()) break;
    const LexStep step = lexicographic_minimum(ctx, deadline);
    if (!step.feasible) {
      result.complete = step.proven;
      break;
    }
    if (!step.proven) break;  // timed out mid-descent: the point is unproven
    result.front.push_back(step.point);
    if (!exclude_dominated(ctx, step.point)) {
      result.complete = true;
      break;
    }
  }
  std::sort(result.front.begin(), result.front.end());
  result.models = ctx.solver.stats().models;
  result.conflicts = ctx.solver.stats().conflicts;
  result.seconds = timer.elapsed_seconds();
  return result;
}

BaselineResult lexicographic_epsilon_cold(const synth::Specification& spec,
                                          double time_limit_seconds) {
  util::Timer timer;
  const util::Deadline deadline(time_limit_seconds);
  ContextOptions copts;
  copts.archive_kind = "linear";  // archive unused

  BaselineResult result;
  std::vector<pareto::Vec> excluded;
  for (;;) {
    if (deadline.expired()) break;
    // Single-shot: re-ground and re-solve from scratch for every point.
    SynthContext ctx(spec, copts);
    for (const pareto::Vec& p : excluded) {
      if (!exclude_dominated(ctx, p)) {
        result.complete = true;
        break;
      }
    }
    if (result.complete) break;

    const LexStep step = lexicographic_minimum(ctx, deadline);
    result.models += ctx.solver.stats().models;
    result.conflicts += ctx.solver.stats().conflicts;
    if (!step.feasible) {
      result.complete = step.proven;
      break;
    }
    if (!step.proven) break;
    result.front.push_back(step.point);
    excluded.push_back(step.point);
  }
  std::sort(result.front.begin(), result.front.end());
  result.seconds = timer.elapsed_seconds();
  return result;
}

}  // namespace aspmt::dse
