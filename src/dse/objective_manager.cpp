#include "dse/objective_manager.hpp"

#include <algorithm>

#include "asp/proof.hpp"
#include "asp/solver.hpp"

namespace aspmt::dse {

void ObjectiveManager::add(ObjectiveTerm term) {
  axes_.push_back(std::move(term));
}

void ObjectiveManager::attach_proof(asp::ProofLog& proof) {
  proof_ = &proof;
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    std::string tokens;
    axes_[i].serialize(tokens);
    proof.def_objective_term(i, tokens);
  }
}

void ObjectiveManager::lower_bounds_into(pareto::Vec& out) const {
  out.resize(axes_.size());
  for (std::size_t i = 0; i < axes_.size(); ++i) out[i] = axes_[i].lower_bound();
}

void ObjectiveManager::explain(std::size_t i, std::int64_t threshold,
                               std::vector<asp::Lit>& out) const {
  axes_[i].explain(threshold, out);
}

void ObjectiveManager::add_bound(std::size_t i, std::int64_t bound,
                                 asp::Lit activation) {
  if (axes_[i].push_bound(bound, activation)) return;
  if (proof_ != nullptr) proof_->def_objective_bound(i, bound, activation);
  residuals_.push_back(Residual{i, bound, activation});
}

bool ObjectiveManager::add_lower_bound(std::size_t i, std::int64_t bound,
                                       asp::Lit activation) {
  return axes_[i].push_lower_bound(bound, activation);
}

bool ObjectiveManager::enforce(asp::Solver& solver) {
  for (const Residual& r : residuals_) {
    if (r.activation != asp::kLitUndef &&
        solver.value(r.activation) != asp::Lbool::True) {
      continue;
    }
    if (lower_bound(r.axis) <= r.bound) continue;
    std::vector<asp::Lit> clause;
    explain(r.axis, r.bound + 1, clause);
    std::sort(clause.begin(), clause.end());
    clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
    for (asp::Lit& l : clause) l = ~l;
    if (r.activation != asp::kLitUndef) clause.push_back(~r.activation);
    const asp::TheoryJustification just{
        asp::TheoryTag::CombinatorBound,
        {static_cast<std::int64_t>(r.axis), r.bound,
         r.activation == asp::kLitUndef ? 0 : asp::proof_int(r.activation)}};
    return solver.add_theory_clause(clause, &just);
  }
  return true;
}

}  // namespace aspmt::dse
