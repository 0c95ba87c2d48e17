// Conditional difference logic — the scheduling background theory.
//
// Nodes are integer event variables (task start times, the makespan), all
// implicitly >= 0.  An edge  to >= from + weight  is *guarded* by a
// conjunction of solver literals and becomes active once all guards are
// true.  The propagator maintains longest distances from the implicit
// origin incrementally (trail-synchronised relaxation with undo records):
//
//  * dist(node) is a sound lower bound of the node under any completion of
//    the current partial assignment — partial assignment evaluation for the
//    latency objective;
//  * at a total assignment dist(makespan) is the exact minimal makespan of
//    the induced schedule (ASAP schedule of the activated precedence graph);
//  * a positive cycle of active edges is a theory conflict explained by the
//    guards of the cycle's edges.
//
// Optional per-node upper bounds (`node <= bound`, optionally under an
// activation literal) support single-objective optimisation on latency.
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

class DifferencePropagator final : public asp::TheoryPropagator {
 public:
  using NodeId = std::uint32_t;
  using EdgeId = std::uint32_t;

  static constexpr std::uint32_t kNone = 0xffffffffU;

  /// Create a new event variable (>= 0).
  NodeId new_node(std::string name = {});

  [[nodiscard]] const std::string& name(NodeId n) const { return nodes_[n].name; }

  /// Add the conditional constraint `to >= from + weight`, active when all
  /// `guards` are true.  Unguarded edges are applied immediately and
  /// permanently; a positive cycle among unguarded edges is a construction
  /// error reported via infeasible().
  EdgeId add_edge(NodeId from, NodeId to, std::int64_t weight,
                  std::vector<asp::Lit> guards);

  /// True if the unconditional part is already contradictory.
  [[nodiscard]] bool infeasible() const noexcept { return infeasible_; }

  /// Longest distance from the origin under the current assignment.
  [[nodiscard]] std::int64_t lower_bound(NodeId n) const noexcept {
    return nodes_[n].dist;
  }

  /// Append the guards of the active path supporting `lower_bound(n)`.
  void explain_bound(NodeId n, std::vector<asp::Lit>& out) const;

  /// Impose `node <= bound` (see LinearSumPropagator::add_bound for the
  /// activation-literal contract).  Several bounds may coexist; the tightest
  /// active one is enforced.
  void add_bound(NodeId n, std::int64_t bound, asp::Lit activation = asp::kLitUndef);

  /// Disable conflict detection on partial assignments (ablation switch —
  /// bookkeeping still runs; violations surface only in check()).
  void set_partial_evaluation(bool enabled) noexcept { partial_eval_ = enabled; }

  /// Mirror node/edge/bound declarations and lemma justifications into a
  /// proof log.  Must be attached before any node or edge is created.
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

  struct Node {
    std::string name;
    std::int64_t dist = 0;
    EdgeId parent = kNone;  // edge that last improved dist
    std::vector<EdgeId> out;
    std::vector<BoundEntry> bounds;
  };

  struct Edge {
    NodeId from = 0;
    NodeId to = 0;
    std::int64_t weight = 0;
    std::vector<asp::Lit> guards;
    std::uint32_t pending = 0;  // guards not yet true
    bool active = false;
  };

  enum class UndoKind : std::uint8_t { EdgeActive, DistChange };

  struct UndoOp {
    std::size_t pos_plus1;  // trail position + 1; 0 = permanent (never undone)
    UndoKind kind;
    std::uint32_t target;   // edge id or node id
    std::int64_t old_dist = 0;
    EdgeId old_parent = kNone;
  };

  /// Activate edge and run relaxations.  Returns false on conflict (clause
  /// injected).  `pos_plus1` tags undo records.
  bool activate(asp::Solver* solver, EdgeId e, std::size_t pos_plus1);

  /// Relax from `start` through active edges.  Returns false on positive
  /// cycle (clause injected when solver != nullptr, infeasible_ set
  /// otherwise).
  bool relax_from(asp::Solver* solver, EdgeId trigger, std::size_t pos_plus1);

  [[nodiscard]] bool on_parent_chain(NodeId ancestor_candidate, NodeId start) const;
  [[nodiscard]] bool enforce_bounds(asp::Solver& solver);
  void collect_cycle_guards(EdgeId closing, std::vector<asp::Lit>& out) const;

  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> watch_;  // literal index -> edges guarded by it
  std::vector<UndoOp> undo_stack_;
  std::size_t cursor_ = 0;
  bool infeasible_ = false;
  bool partial_eval_ = true;
  asp::ProofLog* proof_ = nullptr;
};

}  // namespace aspmt::theory
