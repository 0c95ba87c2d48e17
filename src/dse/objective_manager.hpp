// Uniform view over the Pareto axes of an encoding.  Each axis is an
// ObjectiveTerm tree — a theory-backed leaf (guarded linear sum or
// difference-logic node) or a combinator over such leaves — and the
// dominance propagator and the optimiser only talk to this facade.  The
// manager is conceptually the `pareto_of(...)` root of the term tree: its
// registration order defines the axes a pareto::Point carries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asp/literal.hpp"
#include "dse/objective_term.hpp"
#include "pareto/point.hpp"

namespace aspmt::asp {
class ProofLog;
}

namespace aspmt::dse {

class CombinatorBoundPropagator;

class ObjectiveManager {
 public:
  /// Register one Pareto axis.  This is the only registration surface.
  void add(ObjectiveTerm term);

  /// Wire the residual-bound propagator (and, transitively, its proof log)
  /// used for `add_bound` on combinator axes whose pushdown is incomplete.
  /// Without it such bounds throw (exactness would silently be lost).
  void attach_combinator_bounds(CombinatorBoundPropagator* residual) noexcept {
    residual_ = residual;
  }

  // ---- axis inspection ----------------------------------------------------

  [[nodiscard]] std::size_t count() const noexcept { return axes_.size(); }
  [[nodiscard]] const std::string& name(std::size_t i) const {
    return axes_[i].name();
  }
  [[nodiscard]] const ObjectiveTerm& term(std::size_t i) const {
    return axes_[i];
  }

  /// Lower bound of axis `i` under the current partial assignment (exact on
  /// total assignments).
  [[nodiscard]] std::int64_t lower_bound(std::size_t i) const {
    return axes_[i].lower_bound();
  }

  /// All lower bounds as a vector in registration order.
  [[nodiscard]] pareto::Vec lower_bounds() const;

  /// Allocation-free variant for the propagation hot path.
  void lower_bounds_into(pareto::Vec& out) const;

  /// Append literals explaining `lower_bound(i) >= threshold` (all true).
  void explain(std::size_t i, std::int64_t threshold,
               std::vector<asp::Lit>& out) const;

  /// Impose `axis_i <= bound` (activation-guarded; see the theory
  /// propagators' add_bound contracts).  Leaf axes decompose fully; on
  /// combinator axes the sound pushdowns are installed and any undischarged
  /// remainder goes to the attached CombinatorBoundPropagator.  A floored
  /// linear leaf bounds its floor too; a proof-logged context has no
  /// floors, so there every leaf bound touches the leaf's own sum only.
  void add_bound(std::size_t i, std::int64_t bound,
                 asp::Lit activation = asp::kLitUndef);

  /// Impose `axis_i >= bound` (distributed shard banding).  Only supported
  /// for linear *leaf* axes — returns false for difference-logic leaves and
  /// for every combinator (the floor of a combinator is not decomposable
  /// into sound child floors, so distributed banding keeps its linear-only
  /// contract instead of silently miscomputing).
  bool add_lower_bound(std::size_t i, std::int64_t bound,
                       asp::Lit activation = asp::kLitUndef);

 private:
  std::vector<ObjectiveTerm> axes_;
  CombinatorBoundPropagator* residual_ = nullptr;
};

}  // namespace aspmt::dse
