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
  if (axes_[i].push_bound(bound, activation, /*mirror_floors=*/true)) return;
  if (residual_ == nullptr) {
    throw std::logic_error(
        "combinator axis bound requires an attached CombinatorBoundPropagator");
  }
  residual_->add_bound(i, bound, activation);
}

void ObjectiveManager::add_primary_bound(std::size_t i, std::int64_t bound,
                                         asp::Lit activation) {
  if (axes_[i].push_bound(bound, activation, /*mirror_floors=*/false)) return;
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

ObjectiveManager::Source ObjectiveManager::source(std::size_t i) const noexcept {
  const ObjectiveTerm& t = axes_[i];
  switch (t.kind()) {
    case ObjectiveTerm::Kind::Linear:
      return Source{Source::Kind::Linear, t.leaf_id()};
    case ObjectiveTerm::Kind::Difference:
      return Source{Source::Kind::Difference, t.leaf_id()};
    default:
      return Source{Source::Kind::Combinator, 0};
  }
}

std::vector<std::int64_t> ObjectiveManager::epsilon_splits(std::int64_t lo,
                                                           std::int64_t hi,
                                                           std::size_t parts) {
  std::vector<std::int64_t> splits;
  if (parts < 2 || hi <= lo) return splits;
  const std::int64_t span = hi - lo;
  for (std::size_t i = 1; i < parts; ++i) {
    const std::int64_t b =
        lo + span * static_cast<std::int64_t>(i) /
                 static_cast<std::int64_t>(parts);
    if (b <= lo || b >= hi) continue;
    if (!splits.empty() && splits.back() == b) continue;
    splits.push_back(b);
  }
  return splits;
}

}  // namespace aspmt::dse
