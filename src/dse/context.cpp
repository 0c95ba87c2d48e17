#include "dse/context.hpp"

#include <limits>
#include <map>
#include <optional>

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

/// Σ w_i·(terms of sums[i]), terms sharing a guard merged, in guard order;
/// nullopt when the total would exceed int64.
std::optional<std::vector<theory::Term>> weighted_terms(
    const theory::LinearSumPropagator& linear,
    const std::vector<std::int64_t>& weights, const std::vector<SumId>& sums) {
  std::map<asp::Lit, std::int64_t> by_guard;
  __int128 total = 0;
  for (std::size_t i = 0; i < sums.size(); ++i) {
    for (const theory::Term& t : linear.terms(sums[i])) {
      const __int128 w = static_cast<__int128>(weights[i]) * t.weight;
      total += w;
      if (total > std::numeric_limits<std::int64_t>::max()) return std::nullopt;
      by_guard[t.guard] += static_cast<std::int64_t>(w);
    }
  }
  std::vector<theory::Term> terms;
  terms.reserve(by_guard.size());
  for (const auto& [guard, weight] : by_guard) {
    terms.push_back(theory::Term{guard, weight});
  }
  return terms;
}

/// A weighted node whose children are all linear leaves is itself one
/// guarded linear sum: build it as a linear leaf, so its bounds propagate
/// through LinearSumPropagator instead of a conflict-only residual.  When a
/// child has a floor, the leaf gets the floor Σ w_i·(floor_i, or the child's
/// own sum): it never exceeds the new sum, and the larger of the two lower
/// bounds is the combinator's fold.  nullopt keeps the combinator: some child
/// is not linear, or a merged total would exceed int64.
std::optional<ObjectiveTerm> weighted_as_linear(
    const std::string& label, const std::vector<std::int64_t>& weights,
    const std::vector<ObjectiveTerm>& children,
    theory::LinearSumPropagator& linear) {
  std::vector<SumId> sums;
  std::vector<SumId> floors;
  for (const ObjectiveTerm& c : children) {
    if (c.kind() != ObjectiveTerm::Kind::Linear) return std::nullopt;
    sums.push_back(c.leaf_id());
    floors.push_back(c.floor_sum().value_or(c.leaf_id()));
  }
  auto sum = weighted_terms(linear, weights, sums);
  if (!sum) return std::nullopt;
  std::optional<std::vector<theory::Term>> floor;
  if (floors != sums) {
    floor = weighted_terms(linear, weights, floors);
    if (!floor) return std::nullopt;
  }
  ObjectiveTerm t = ObjectiveTerm::linear(
      label, &linear, linear.add_sum(label, std::move(*sum)));
  if (floor) {
    t.with_floor(linear.add_sum(label + "_floor", std::move(*floor)));
  }
  return t;
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
      if (enc.energy_floor_sum) t.with_floor(*enc.energy_floor_sum);
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
      if (std::optional<ObjectiveTerm> sum =
              weighted_as_linear(label, expr.weights, children, linear)) {
        return std::move(*sum);
      }
      return ObjectiveTerm::weighted(label, expr.weights, std::move(children));
  }
}

}  // namespace

bool ModelCapture::check(asp::Solver& solver) {
  ctx_.objectives.lower_bounds_into(vector_);
  impl_ = synth::decode_current(ctx_.spec(), ctx_.encoding, solver, ctx_.linear,
                                ctx_.difference);
  return true;
}

bool SynthContext::block_model() {
  std::vector<asp::Lit> blocking;
  blocking.reserve(encoding.decision_lits.size());
  for (const asp::Lit d : encoding.decision_lits) {
    blocking.push_back(solver.model_value(d.var()) == d.positive() ? ~d : d);
  }
  return solver.add_clause(std::move(blocking));
}

SynthContext::SynthContext(const synth::Specification& spec, ContextOptions options)
    : solver(options.solver_options), spec_(&spec) {
  if (options.proof != nullptr) {
    // Attach before encode() so the trace covers every declaration.
    solver.set_proof(options.proof);
    linear.set_proof(options.proof);
    difference.set_proof(options.proof);
  }
  // The checker cannot re-derive a floor, so a proof-logged context builds
  // none (floors are pure pruning: the front is unchanged).
  synth::EncodeOptions eopts;
  eopts.objective_floors = options.objective_floors && options.proof == nullptr;
  encoding = synth::encode(spec, solver, linear, difference, eopts);

  // One ObjectiveTerm tree per Pareto axis, instantiated from the spec's
  // objective expressions (the classic latency/energy/cost triple when none
  // are declared).  Scenario energy sums are materialized on first use.
  std::map<std::size_t, SumId> scenario_sums;
  for (const synth::ObjectiveExpr& expr : spec.effective_objectives()) {
    objectives.add(
        build_term(spec, encoding, linear, difference, scenario_sums, expr));
  }
  if (options.proof != nullptr) objectives.attach_proof(*options.proof);

  archive_ = pareto::make_archive(options.archive_kind, objectives.count());
  dominance_ = std::make_unique<DominancePropagator>(objectives, *archive_);
  capture_ = std::make_unique<ModelCapture>(*this);

  if (!options.partial_evaluation) {
    linear.set_partial_evaluation(false);
    difference.set_partial_evaluation(false);
    dominance_->set_partial_evaluation(false);
  }

  // Domain heuristic of the paper series (LPNMR'15): deciding bindings
  // first fixes the WCET/energy/cost contributions of every task, so the
  // objective lower bounds (and with them the dominance propagator) become
  // meaningful at shallow decision levels.
  for (const auto& per_task : encoding.bind_atom) {
    for (const asp::Atom a : per_task) {
      solver.boost_variable(encoding.compiled.atom_var[a], 100.0);
    }
  }

  // Registration order matters: theories first (they feed the objective
  // bounds), then the objectives' residual bounds, then dominance, then
  // capture (which must only run on accepted assignments).
  solver.add_propagator(&linear);
  solver.add_propagator(&difference);
  solver.add_propagator(&objectives);
  solver.add_propagator(dominance_.get());
  solver.add_propagator(capture_.get());
}

}  // namespace aspmt::dse
