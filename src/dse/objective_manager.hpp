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
  /// remainder goes to the attached CombinatorBoundPropagator.
  void add_bound(std::size_t i, std::int64_t bound,
                 asp::Lit activation = asp::kLitUndef);

  /// Like add_bound but on the primary source only — leaf bounds are NOT
  /// mirrored onto floors.  Used for the distributed shard-band ceiling: the
  /// merged-front checker only accepts a shard box whose activation bounds
  /// touch exactly one sum (the shard objective's), so the ceiling must not
  /// fan out across floor sums.  Mirroring is purely a propagation
  /// sharpener; skipping it never affects exactness.
  void add_primary_bound(std::size_t i, std::int64_t bound,
                         asp::Lit activation = asp::kLitUndef);

  /// Impose `axis_i >= bound` (distributed shard banding).  Only supported
  /// for linear *leaf* axes — returns false for difference-logic leaves and
  /// for every combinator (the floor of a combinator is not decomposable
  /// into sound child floors, so distributed banding keeps its linear-only
  /// contract instead of silently miscomputing).
  bool add_lower_bound(std::size_t i, std::int64_t bound,
                       asp::Lit activation = asp::kLitUndef);

  /// Primary theory source of an axis — what a proof log's objective binding
  /// declares and the checker re-evaluates explanations against.  Combinator
  /// axes have no single theory id; callers that need one (distributed
  /// shard-objective validation) must check the kind first.
  struct Source {
    enum class Kind : std::uint8_t { Linear, Difference, Combinator };
    Kind kind = Kind::Linear;
    std::uint32_t id = 0;  ///< sum id (linear) or node id (difference); 0 otherwise
  };
  [[nodiscard]] Source source(std::size_t i) const noexcept;

  /// Epsilon-constraint work partitioning for the parallel portfolio: split
  /// the observed objective range [lo, hi] into `parts` regions and return
  /// the ascending interior upper bounds (at most parts-1, deduplicated,
  /// strictly inside (lo, hi)).  Worker w then explores under
  /// `objective <= splits[w-1]` before falling back to the full problem, so
  /// the portfolio seeds the archive from `parts` different slices of the
  /// front.  Purely a work-partitioning heuristic — completeness never
  /// depends on it.
  [[nodiscard]] static std::vector<std::int64_t> epsilon_splits(
      std::int64_t lo, std::int64_t hi, std::size_t parts);

 private:
  std::vector<ObjectiveTerm> axes_;
  CombinatorBoundPropagator* residual_ = nullptr;
};

}  // namespace aspmt::dse
