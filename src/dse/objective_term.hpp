// First-class objective terms: the tree the ObjectiveManager's axes are
// made of.
//
// Leaves are theory-backed objectives — guarded linear sums and
// difference-logic nodes, with optional floor sums attached at the leaf.
// Interior nodes are combinators:
//
//   lex(a, b, ...)       big-endian packing Σ clamp(v_i,0,cap_i)·stride_i
//                        with static caps (part of the axis definition)
//   minmax(a, b, ...)    max of the children (the spec's worst(...) over
//                        scenarios is a minmax carrying its own label)
//   weighted(w*a+...)    positive-integer weighted aggregate
//
// Every node provides three facilities the dominance propagator and the
// optimizer rely on:
//
//   * lower_bound()   — a sound lower bound from child bounds on partial
//                       assignments (exact at total assignments, since every
//                       combinator is monotone and leaf bounds are exact);
//   * explain(t, out) — literals justifying lower_bound() >= t, by recursion
//                       into children.  The explanation is checker-friendly:
//                       re-deriving each *leaf* bound from the clause and
//                       folding it through the (monotone) combinators again
//                       reaches t;
//   * push_bound()    — decompose `term <= bound` into child theory bounds
//                       where sound.  minmax fans out
//                       completely; weighted pushes child_i <= bound/w_i and
//                       lex pushes a prefix bound on its most significant
//                       child — both sound but incomplete, so the caller
//                       must install a residual combinator bound (see
//                       CombinatorBoundPropagator).  push_lower_bound() is
//                       only sound on linear leaves and is rejected
//                       elsewhere, which keeps the distributed banding
//                       contract linear-only.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asp/literal.hpp"
#include "theory/difference.hpp"
#include "theory/linear_sum.hpp"

namespace aspmt::dse {

class ObjectiveTerm {
 public:
  enum class Kind : std::uint8_t {
    Linear,
    Difference,
    Lex,
    MinMax,
    Weighted,
  };

  // ---- construction -------------------------------------------------------

  /// Linear-sum leaf (non-owning propagator pointer).
  [[nodiscard]] static ObjectiveTerm linear(
      std::string name, theory::LinearSumPropagator* propagator,
      theory::LinearSumPropagator::SumId sum);

  /// Difference-logic node leaf (e.g. the makespan).
  [[nodiscard]] static ObjectiveTerm makespan(
      std::string name, theory::DifferencePropagator* propagator,
      theory::DifferencePropagator::NodeId node);

  /// Lexicographic combinator.  `caps` gives the static per-child caps of
  /// the packing (one per child).  Throws std::invalid_argument when the
  /// arity mismatches, fewer than two children are given, a cap is negative
  /// or Π (cap_i + 1) overflows int64.
  [[nodiscard]] static ObjectiveTerm lex(std::string name,
                                         std::vector<std::int64_t> caps,
                                         std::vector<ObjectiveTerm> children);

  /// Min-max combinator (at least two children).
  [[nodiscard]] static ObjectiveTerm minmax(std::string name,
                                            std::vector<ObjectiveTerm> children);

  /// Weighted aggregate.  Weights must be >= 1 and match the child count
  /// (at least one child); throws std::invalid_argument otherwise.
  [[nodiscard]] static ObjectiveTerm weighted(std::string name,
                                              std::vector<std::int64_t> weights,
                                              std::vector<ObjectiveTerm> children);

  /// Attach a floor sum to a *linear leaf*: a redundant sum that never
  /// exceeds the leaf in a total model but can bound tighter on partial
  /// assignments.  Throws std::invalid_argument on non-linear terms.
  ObjectiveTerm& with_floor(theory::LinearSumPropagator* propagator,
                            theory::LinearSumPropagator::SumId sum);

  // ---- inspection ---------------------------------------------------------

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool is_leaf() const noexcept {
    return kind_ == Kind::Linear || kind_ == Kind::Difference;
  }
  [[nodiscard]] bool is_linear_leaf() const noexcept {
    return kind_ == Kind::Linear;
  }
  /// Leaf theory id (sum or node).
  [[nodiscard]] std::uint32_t leaf_id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<ObjectiveTerm>& children() const noexcept {
    return children_;
  }
  [[nodiscard]] const std::vector<std::int64_t>& params() const noexcept {
    return params_;  ///< caps (lex) or weights (weighted)
  }

  // ---- semantics ----------------------------------------------------------

  /// Sound lower bound under the current partial assignment (exact on total
  /// assignments).
  [[nodiscard]] std::int64_t lower_bound() const;

  /// Append true literals justifying `lower_bound() >= threshold`.
  void explain(std::int64_t threshold, std::vector<asp::Lit>& out) const;

  /// Push `term <= bound` into child theory bounds where sound.  Returns
  /// true iff the decomposition *fully* enforces the bound (leaves, minmax
  /// fan-out); false when a residual combinator-level
  /// bound is still required (weighted, lex).  `mirror_floors` additionally
  /// mirrors leaf bounds onto attached floor sums (a propagation sharpener;
  /// skip it for shard ceilings, whose proofs must touch one sum only).
  bool push_bound(std::int64_t bound, asp::Lit activation,
                  bool mirror_floors) const;

  /// Push `term >= bound`.  Only sound on linear leaves; returns false
  /// (no constraint installed) everywhere else.
  bool push_lower_bound(std::int64_t bound, asp::Lit activation) const;

  /// Serialize the tree as proof-binding tokens:
  ///   L <sum> | D <node> | X <k> <cap...> <child>... |
  ///   M <k> <child>... | W <k> <weight...> <child>...
  /// A leaf serializes to exactly the legacy binding body.
  void serialize(std::string& out) const;

 private:
  Kind kind_ = Kind::Linear;
  std::string name_;
  // Leaf payload.
  theory::LinearSumPropagator* linear_ = nullptr;
  theory::LinearSumPropagator::SumId sum_ = 0;
  theory::DifferencePropagator* difference_ = nullptr;
  theory::DifferencePropagator::NodeId node_ = 0;
  std::uint32_t id_ = 0;
  struct Floor {
    theory::LinearSumPropagator* linear = nullptr;
    theory::LinearSumPropagator::SumId sum = 0;
  };
  std::vector<Floor> floors_;
  // Interior payload.
  std::vector<std::int64_t> params_;  // caps (lex) or weights (weighted)
  std::vector<ObjectiveTerm> children_;

  static ObjectiveTerm combinator(Kind kind, std::string name,
                                  std::vector<std::int64_t> params,
                                  std::vector<ObjectiveTerm> children);
};

}  // namespace aspmt::dse
