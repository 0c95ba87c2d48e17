#include "dse/context.hpp"

#include <map>

#include "synth/objective_expr.hpp"

namespace aspmt::dse {

namespace {

using SumId = theory::LinearSumPropagator::SumId;

/// Build the guarded linear sum of a scenario's energy: every encoding term
/// of the nominal energy sum, scaled by the scenario's per-resource factor —
/// execution terms by the factor of the mapping's resource, communication
/// terms by the factor of the link's sending resource.  Mirrors
/// synth::recompute_metrics term for term.
SumId scenario_energy_sum(const synth::Specification& spec,
                          const synth::Encoding& enc,
                          theory::LinearSumPropagator& linear,
                          std::size_t scenario) {
  const synth::Scenario& s = spec.scenarios()[scenario];
  std::vector<theory::Term> terms;
  for (synth::TaskId t = 0; t < spec.tasks().size(); ++t) {
    const auto& options = spec.mappings_of(t);
    for (std::size_t i = 0; i < options.size(); ++i) {
      const synth::MappingOption& o = spec.mappings()[options[i]];
      const std::int64_t w = o.energy * s.factor_of(o.resource);
      if (w != 0) terms.push_back(theory::Term{enc.lit(enc.bind_atom[t][i]), w});
    }
  }
  for (synth::MessageId m = 0; m < spec.messages().size(); ++m) {
    for (const auto& per_hop : enc.step_atom[m]) {
      for (synth::LinkId l = 0; l < per_hop.size(); ++l) {
        if (per_hop[l] == synth::Encoding::kNoAtom) continue;
        const synth::Link& link = spec.links()[l];
        const std::int64_t w = spec.messages()[m].payload * link.hop_energy *
                               s.factor_of(link.from);
        if (w != 0) terms.push_back(theory::Term{enc.lit(per_hop[l]), w});
      }
    }
  }
  return linear.add_sum("energy@" + s.name, std::move(terms));
}

/// Instantiate one axis' ObjectiveTerm tree from its spec-level expression.
/// Lex caps come from synth::expr_cap, the same statics the witness
/// recomputation uses, so runtime values, recomputed values and the proof
/// binding always agree.
ObjectiveTerm build_term(const synth::Specification& spec,
                         const synth::Encoding& enc,
                         theory::LinearSumPropagator& linear,
                         theory::DifferencePropagator& difference,
                         std::map<std::size_t, SumId>& scenario_sums,
                         const synth::ObjectiveExpr& expr) {
  const std::string label = synth::to_string(expr);
  if (expr.kind == synth::ObjectiveExpr::Kind::Metric) {
    if (expr.metric == "latency") {
      return ObjectiveTerm::makespan(label, &difference, enc.makespan);
    }
    if (expr.metric == "cost") {
      return ObjectiveTerm::linear(label, &linear, enc.cost_sum);
    }
    if (expr.scenario.empty()) {
      ObjectiveTerm t = ObjectiveTerm::linear(label, &linear, enc.energy_sum);
      t.with_floor(&linear, enc.energy_floor_sum);
      return t;
    }
    const std::size_t scn = spec.scenario_index(expr.scenario);
    auto it = scenario_sums.find(scn);
    if (it == scenario_sums.end()) {
      it = scenario_sums
               .emplace(scn, scenario_energy_sum(spec, enc, linear, scn))
               .first;
    }
    return ObjectiveTerm::linear(label, &linear, it->second);
  }

  std::vector<ObjectiveTerm> children;
  children.reserve(expr.children.size());
  for (const synth::ObjectiveExpr& c : expr.children) {
    children.push_back(
        build_term(spec, enc, linear, difference, scenario_sums, c));
  }
  switch (expr.kind) {
    case synth::ObjectiveExpr::Kind::Lex: {
      std::vector<std::int64_t> caps;
      caps.reserve(expr.children.size());
      for (const synth::ObjectiveExpr& c : expr.children) {
        caps.push_back(synth::expr_cap(spec, c));
      }
      return ObjectiveTerm::lex(label, std::move(caps), std::move(children));
    }
    case synth::ObjectiveExpr::Kind::MinMax:
    case synth::ObjectiveExpr::Kind::Worst:  // a minmax over scenarios
      return ObjectiveTerm::minmax(label, std::move(children));
    case synth::ObjectiveExpr::Kind::Weighted:
    default:
      return ObjectiveTerm::weighted(label, expr.weights, std::move(children));
  }
}

}  // namespace

bool ModelCapture::check(asp::Solver& solver) {
  vector_ = ctx_.objectives.lower_bounds();
  impl_ = synth::decode_current(ctx_.spec(), ctx_.encoding, solver, ctx_.linear,
                                ctx_.difference);
  return true;
}

SynthContext::SynthContext(const synth::Specification& spec, ContextOptions options)
    : solver(options.solver_options), spec_(&spec) {
  if (options.proof != nullptr) {
    // Attach before encode() so the trace covers every declaration.
    solver.set_proof(options.proof);
    linear.set_proof(options.proof);
    difference.set_proof(options.proof);
  }
  synth::EncodeOptions eopts;
  eopts.objective_floors = options.objective_floors;
  encoding = synth::encode(spec, solver, linear, difference, eopts);

  // One ObjectiveTerm tree per Pareto axis, instantiated from the spec's
  // objective expressions (the classic latency/energy/cost triple when none
  // are declared).  Scenario energy sums are materialized on first use.
  std::map<std::size_t, SumId> scenario_sums;
  for (const synth::ObjectiveExpr& expr : spec.effective_objectives()) {
    objectives.add(
        build_term(spec, encoding, linear, difference, scenario_sums, expr));
  }
  combinator_bounds_ = std::make_unique<CombinatorBoundPropagator>(objectives);
  combinator_bounds_->set_proof(options.proof);
  objectives.attach_combinator_bounds(combinator_bounds_.get());
  if (options.proof != nullptr) {
    for (std::size_t i = 0; i < objectives.count(); ++i) {
      std::string tokens;
      objectives.term(i).serialize(tokens);
      options.proof->def_objective_term(i, tokens);
    }
  }

  unfounded_ = std::make_unique<asp::UnfoundedSetChecker>(encoding.compiled);
  unfounded_->set_proof(options.proof);
  archive_ = pareto::make_archive(options.archive_kind, objectives.count());
  dominance_ = std::make_unique<DominancePropagator>(objectives, *archive_);
  capture_ = std::make_unique<ModelCapture>(*this);

  if (!options.partial_evaluation) {
    linear.set_partial_evaluation(false);
    difference.set_partial_evaluation(false);
    dominance_->set_partial_evaluation(false);
  }

  if (options.binding_first_heuristic) {
    // Deciding bindings first fixes the WCET/energy/cost contributions of
    // every task, so the objective lower bounds (and with them the dominance
    // propagator) become meaningful at shallow decision levels.
    for (const auto& per_task : encoding.bind_atom) {
      for (const asp::Atom a : per_task) {
        solver.boost_variable(encoding.compiled.atom_var[a], 100.0);
      }
    }
  }

  // Registration order matters: theories first (they feed the objective
  // bounds), then stability, then the residual combinator bounds, then
  // dominance, then capture (which must only run on accepted assignments).
  solver.add_propagator(&linear);
  solver.add_propagator(&difference);
  solver.add_propagator(unfounded_.get());
  solver.add_propagator(combinator_bounds_.get());
  solver.add_propagator(dominance_.get());
  solver.add_propagator(capture_.get());
}

}  // namespace aspmt::dse
