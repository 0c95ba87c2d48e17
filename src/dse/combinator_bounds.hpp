// Residual enforcement of `axis <= bound` constraints on combinator axes.
//
// Weighted and lexicographic axes cannot be fully decomposed into child
// theory bounds (ObjectiveTerm::push_bound returns false for them), so the
// ObjectiveManager registers the undischarged remainder here.  (A spec's
// weighted node over linear leaves never gets here: SynthContext builds it
// as one linear sum, whose bounds LinearSumPropagator enforces in full.)
// Enforcement is conflict-only: whenever the axis' tree lower bound exceeds
// an active bound, the propagator injects the nogood
//
//   {~act} ∪ ~explain(axis, bound + 1)
//
// justified as a CB theory lemma over the OB bound declaration.  This is
// weaker than per-literal propagation but *exact*: tree lower bounds equal
// the axis value on total assignments, so no over-bound model survives
// check(), and the sound partial pushdowns installed alongside carry most of
// the pruning.  Bounds accumulate like theory bounds do — an activation
// literal that leaves the trail simply deactivates its bound.
#pragma once

#include <cstdint>
#include <vector>

#include "asp/literal.hpp"
#include "asp/propagator.hpp"

namespace aspmt::asp {
class ProofLog;
class Solver;
}  // namespace aspmt::asp

namespace aspmt::dse {

class ObjectiveManager;

class CombinatorBoundPropagator final : public asp::TheoryPropagator {
 public:
  explicit CombinatorBoundPropagator(const ObjectiveManager& objectives)
      : objectives_(objectives) {}

  /// Mirror OB declarations into a proof log (attach before any bound).
  void set_proof(asp::ProofLog* proof) noexcept { proof_ = proof; }

  /// Register `axis <= bound` while `activation` holds (kLitUndef = always;
  /// unconditional bounds must only ever tighten, mirroring the theory
  /// propagators' contract).
  void add_bound(std::size_t axis, std::int64_t bound, asp::Lit activation);

  // -- TheoryPropagator ----------------------------------------------------
  bool propagate(asp::Solver& solver) override { return enforce(solver); }
  void undo_to(const asp::Solver&, std::size_t) override {}
  bool check(asp::Solver& solver) override { return enforce(solver); }

 private:
  bool enforce(asp::Solver& solver);

  struct Bound {
    std::size_t axis = 0;
    std::int64_t bound = 0;
    asp::Lit activation = asp::kLitUndef;
  };

  const ObjectiveManager& objectives_;
  std::vector<Bound> bounds_;
  asp::ProofLog* proof_ = nullptr;
};

}  // namespace aspmt::dse
