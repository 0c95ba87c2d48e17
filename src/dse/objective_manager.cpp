#include "dse/objective_manager.hpp"

#include <stdexcept>

#include "dse/combinator_bounds.hpp"

namespace aspmt::dse {

void ObjectiveManager::add(ObjectiveTerm term) {
  axes_.push_back(std::move(term));
}

pareto::Vec ObjectiveManager::lower_bounds() const {
  pareto::Vec v;
  lower_bounds_into(v);
  return v;
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
  if (residual_ == nullptr) {
    throw std::logic_error(
        "combinator axis bound requires an attached CombinatorBoundPropagator");
  }
  residual_->add_bound(i, bound, activation);
}

bool ObjectiveManager::add_lower_bound(std::size_t i, std::int64_t bound,
                                       asp::Lit activation) {
  return axes_[i].push_lower_bound(bound, activation);
}

}  // namespace aspmt::dse
