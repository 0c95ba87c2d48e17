// Guarded linear sums — the linear-arithmetic background theory.
//
// A sum is  Σ weight_i · [guard_i]  with non-negative integer weights, where
// [guard_i] is 1 iff the solver literal guard_i is true.  Because weights are
// non-negative, the *lower bound* under a partial assignment is simply the
// weighted count of guards already true, and the *upper bound* adds all
// still-undecided guards.  This is the partial-assignment-evaluation
// mechanism of the DATE'17/'18 papers: bounds are exact at total assignments
// and monotonically tighten along the trail.
//
// The propagator maintains any number of sums (one per objective) and
// optional upper-bound constraints `sum <= bound` that can be activated
// under an assumption literal (used by the optimizer and the ε-constraint
// baseline).  Violations are reported as injected clauses over the guards.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "asp/literal.hpp"
#include "asp/proof.hpp"
#include "asp/propagator.hpp"

namespace aspmt::asp {
class Solver;
}

namespace aspmt::theory {

/// One weighted, guarded term of a linear sum.
struct Term {
  asp::Lit guard;
  std::int64_t weight = 0;     ///< must be >= 0
  bool contributing = false;   ///< guard currently true (maintained internally)
};

class LinearSumPropagator final : public asp::TheoryPropagator {
 public:
  using SumId = std::uint32_t;

  /// Register a new sum.  Must be called before the first solve.
  SumId add_sum(std::string name, std::vector<Term> terms);

  [[nodiscard]] const std::string& name(SumId s) const { return sums_[s].name; }

  /// The sum's terms, heaviest first (ties in guard order).
  [[nodiscard]] const std::vector<Term>& terms(SumId s) const {
    return sums_[s].terms;
  }

  /// Lower bound of the sum under the current partial assignment.
  [[nodiscard]] std::int64_t lower_bound(SumId s) const noexcept {
    return sums_[s].lower;
  }

  /// Impose `sum <= bound`.  If `activation` is a real literal the constraint
  /// only applies while that literal is true (pass it as an assumption or
  /// decide it); all clauses injected for this bound then contain its
  /// negation, keeping them sound when the activation is dropped.  A bound
  /// without activation must only ever be *tightened* (monotone
  /// strengthening keeps learned clauses sound).  Several bounds may be
  /// active at once; the tightest active one is enforced.
  void add_bound(SumId s, std::int64_t bound, asp::Lit activation = asp::kLitUndef);

  /// Impose `sum >= bound` (the distributed shard floor).  Mirrors
  /// add_bound: with a real `activation` literal the constraint applies only
  /// while that literal is true, and every injected clause carries its
  /// negation.  Enforced against the *upper* bound (lower + slack): once the
  /// falsified guards forfeit too much weight the remaining heavy undecided
  /// guards are forced true, and running out of weight is a conflict.
  void add_lower_bound(SumId s, std::int64_t bound,
                       asp::Lit activation = asp::kLitUndef);

  /// Collect true guards explaining `lower_bound(s) >= threshold`, greedily
  /// preferring heavy guards so explanations stay short.  Appends the guard
  /// literals (which are true) to `out`.
  void explain_lower_bound(SumId s, std::int64_t threshold,
                           std::vector<asp::Lit>& out) const;

  /// Exact value of the sum under a total model (by variable values).
  [[nodiscard]] std::int64_t value_under_model(
      SumId s, const std::vector<asp::Lbool>& model) const;

  /// Disable bound enforcement on partial assignments (ablation switch —
  /// bookkeeping still runs; violations surface only in check()).
  void set_partial_evaluation(bool enabled) noexcept { partial_eval_ = enabled; }

  /// Mirror sum/bound declarations and lemma justifications into a proof
  /// log.  Must be attached before any sum is registered.
  void set_proof(asp::ProofLog* proof) noexcept { proof_ = proof; }

  // -- TheoryPropagator ----------------------------------------------------
  bool propagate(asp::Solver& solver) override;
  void undo_to(const asp::Solver& solver, std::size_t trail_size) override;
  bool check(asp::Solver& solver) override;

 private:
  struct BoundEntry {
    std::int64_t bound = std::numeric_limits<std::int64_t>::max();
    asp::Lit activation = asp::kLitUndef;
  };

  struct Sum {
    std::string name;
    std::vector<Term> terms;          // sorted by weight descending
    std::int64_t lower = 0;           // weights of true guards
    std::int64_t slack = 0;           // weights of undecided guards
    std::int64_t total = 0;           // Σ weights
    std::vector<BoundEntry> bounds;
    std::vector<BoundEntry> lower_bounds;
  };

  struct WatchRef {
    SumId sum;
    std::uint32_t term;
  };

  struct UndoOp {
    std::size_t trail_pos;
    SumId sum;
    std::int64_t weight;
    bool was_true;  // guard became true (else guard became false)
    std::uint32_t term;
  };

  [[nodiscard]] bool enforce_bound(asp::Solver& solver, SumId id);
  [[nodiscard]] bool enforce_lower_bound(asp::Solver& solver, SumId id);
  // Collect FALSE guards (appended positively) explaining
  // `lower + slack <= total - threshold`, heavy-first.
  void explain_forfeit(SumId s, std::int64_t threshold,
                       const asp::Solver& solver,
                       std::vector<asp::Lit>& out) const;

  std::vector<Sum> sums_;
  // watch table: literal index -> terms whose guard equals that literal
  std::vector<std::vector<WatchRef>> watch_true_;
  std::vector<UndoOp> undo_stack_;
  std::size_t cursor_ = 0;
  bool partial_eval_ = true;
  asp::ProofLog* proof_ = nullptr;
};

}  // namespace aspmt::theory
