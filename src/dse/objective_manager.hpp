// Uniform view over the Pareto axes of an encoding.  Each axis is an
// ObjectiveTerm tree — a theory-backed leaf (guarded linear sum or
// difference-logic node) or a combinator over such leaves — and the
// dominance propagator and the optimiser only talk to this facade.  The
// manager is conceptually the `pareto_of(...)` root of the term tree: its
// registration order defines the axes a pareto::Point carries.
//
// It is also the one owner of objective-level bounds.  add_bound pushes what
// it can into the child theories; a bound on a weighted or lex axis that the
// pushdown cannot discharge stays here as a *residual*, which the manager
// enforces itself as a theory propagator.  Enforcement is conflict-only:
// whenever the axis' tree lower bound exceeds an active residual bound, it
// injects the nogood
//
//   {~act} ∪ ~explain(axis, bound + 1)
//
// justified as a CB theory lemma over the OB bound declaration.  This is
// weaker than per-literal propagation but *exact*: tree lower bounds equal
// the axis value on total assignments, so no over-bound model survives
// check(), and the sound partial pushdowns installed alongside carry most of
// the pruning.  Residuals accumulate like theory bounds do — an activation
// literal that leaves the trail simply deactivates its bound.  (A spec's
// weighted node over linear leaves never has a residual: SynthContext builds
// it as one linear sum, whose bounds LinearSumPropagator enforces in full.)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asp/literal.hpp"
#include "asp/propagator.hpp"
#include "dse/objective_term.hpp"
#include "pareto/point.hpp"

namespace aspmt::asp {
class ProofLog;
}

namespace aspmt::dse {

class ObjectiveManager final : public asp::TheoryPropagator {
 public:
  /// Register one Pareto axis.  This is the only registration surface.
  void add(ObjectiveTerm term);

  /// Bind every registered axis in `proof` (`O <obj> <tree>`) and declare
  /// each later residual bound there (`OB`).  Call after the last add() and
  /// before any add_bound; `proof` must outlive the manager.
  void attach_proof(asp::ProofLog& proof);

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

  /// All lower bounds in registration order, into `out` (resized).
  void lower_bounds_into(pareto::Vec& out) const;

  /// Append literals explaining `lower_bound(i) >= threshold` (all true).
  void explain(std::size_t i, std::int64_t threshold,
               std::vector<asp::Lit>& out) const;

  /// Impose `axis_i <= bound` (activation-guarded; see the theory
  /// propagators' add_bound contracts).  Leaf axes decompose fully; on
  /// combinator axes the sound pushdowns are installed and any undischarged
  /// remainder becomes a residual this manager enforces once it is
  /// registered with the solver.  A floored linear leaf bounds its floor
  /// too; a proof-logged context has no floors, so there every leaf bound
  /// touches the leaf's own sum only.
  void add_bound(std::size_t i, std::int64_t bound,
                 asp::Lit activation = asp::kLitUndef);

  /// Impose `axis_i >= bound` (distributed shard banding).  Only supported
  /// for linear *leaf* axes — returns false for difference-logic leaves and
  /// for every combinator (the floor of a combinator is not decomposable
  /// into sound child floors, so distributed banding keeps its linear-only
  /// contract instead of silently miscomputing).
  bool add_lower_bound(std::size_t i, std::int64_t bound,
                       asp::Lit activation = asp::kLitUndef);

  // ---- TheoryPropagator: residual bounds -----------------------------------
  bool propagate(asp::Solver& solver) override { return enforce(solver); }
  void undo_to(const asp::Solver&, std::size_t) override {}
  bool check(asp::Solver& solver) override { return enforce(solver); }

 private:
  bool enforce(asp::Solver& solver);

  struct Residual {
    std::size_t axis = 0;
    std::int64_t bound = 0;
    asp::Lit activation = asp::kLitUndef;
  };

  std::vector<ObjectiveTerm> axes_;
  std::vector<Residual> residuals_;
  asp::ProofLog* proof_ = nullptr;
};

}  // namespace aspmt::dse
