#include "theory/difference.hpp"

#include <algorithm>
#include <cassert>

#include "asp/solver.hpp"

namespace aspmt::theory {

using asp::Lbool;
using asp::Lit;
using asp::Solver;

DifferencePropagator::NodeId DifferencePropagator::new_node(std::string name) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  if (name.empty()) {
    name += 'n';
    name += std::to_string(id);
  }
  n.name = std::move(name);
  nodes_.push_back(std::move(n));
  if (proof_ != nullptr) proof_->def_node(id);
  return id;
}

DifferencePropagator::EdgeId DifferencePropagator::add_edge(
    NodeId from, NodeId to, std::int64_t weight, std::vector<Lit> guards) {
  std::sort(guards.begin(), guards.end());
  guards.erase(std::unique(guards.begin(), guards.end()), guards.end());
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  Edge e;
  e.from = from;
  e.to = to;
  e.weight = weight;
  e.pending = static_cast<std::uint32_t>(guards.size());
  e.guards = std::move(guards);
  edges_.push_back(std::move(e));
  nodes_[from].out.push_back(id);
  for (const Lit g : edges_[id].guards) {
    const std::uint32_t need = g.index() + 1;
    if (watch_.size() < need) watch_.resize(need);
    watch_[g.index()].push_back(id);
  }
  if (proof_ != nullptr) {
    proof_->def_edge(id, from, to, weight, edges_[id].guards);
  }
  if (edges_[id].pending == 0) {
    edges_[id].active = true;
    if (!relax_from(nullptr, id, /*pos_plus1=*/0)) infeasible_ = true;
  }
  return id;
}

void DifferencePropagator::explain_bound(NodeId n, std::vector<Lit>& out) const {
  EdgeId e = nodes_[n].parent;
  while (e != kNone) {
    const Edge& ed = edges_[e];
    out.insert(out.end(), ed.guards.begin(), ed.guards.end());
    e = nodes_[ed.from].parent;
  }
}

void DifferencePropagator::add_bound(NodeId n, std::int64_t bound, Lit activation) {
  if (proof_ != nullptr) proof_->def_node_bound(n, bound, activation);
  nodes_[n].bounds.push_back(BoundEntry{bound, activation});
}

bool DifferencePropagator::on_parent_chain(NodeId ancestor_candidate,
                                           NodeId start) const {
  NodeId n = start;
  while (n != ancestor_candidate) {
    const EdgeId e = nodes_[n].parent;
    if (e == kNone) return false;
    n = edges_[e].from;
  }
  return true;
}

void DifferencePropagator::collect_cycle_guards(EdgeId closing,
                                                std::vector<Lit>& out) const {
  const Edge& ce = edges_[closing];
  out.insert(out.end(), ce.guards.begin(), ce.guards.end());
  // Walk the parent chain from ce.from back to ce.to.
  NodeId n = ce.from;
  while (n != ce.to) {
    const EdgeId e = nodes_[n].parent;
    assert(e != kNone && "cycle walk must reach the closing target");
    const Edge& ed = edges_[e];
    out.insert(out.end(), ed.guards.begin(), ed.guards.end());
    n = ed.from;
  }
}

bool DifferencePropagator::relax_from(Solver* solver, EdgeId trigger,
                                      std::size_t pos_plus1) {
  std::vector<EdgeId> queue{trigger};
  while (!queue.empty()) {
    const EdgeId eid = queue.back();
    queue.pop_back();
    const Edge& e = edges_[eid];
    if (!e.active) continue;
    const std::int64_t nd = nodes_[e.from].dist + e.weight;
    if (nd <= nodes_[e.to].dist) continue;
    // A distance increase around a cycle means the cycle is positive.
    if (e.to == e.from || on_parent_chain(e.to, e.from)) {
      std::vector<Lit> guards;
      collect_cycle_guards(eid, guards);
      std::sort(guards.begin(), guards.end());
      guards.erase(std::unique(guards.begin(), guards.end()), guards.end());
      if (solver == nullptr) return false;  // construction-time cycle
      for (Lit& g : guards) g = ~g;
      const asp::TheoryJustification just{asp::TheoryTag::DiffCycle, {}};
      const bool status = solver->add_theory_clause(guards, &just);
      assert(!status && "positive-cycle clause must be conflicting");
      return status;
    }
    Node& target = nodes_[e.to];
    undo_stack_.push_back(UndoOp{pos_plus1, UndoKind::DistChange, e.to,
                                 target.dist, target.parent});
    target.dist = nd;
    target.parent = eid;
    for (const EdgeId out : target.out) queue.push_back(out);
  }
  return true;
}

bool DifferencePropagator::activate(Solver* solver, EdgeId e,
                                    std::size_t pos_plus1) {
  edges_[e].active = true;
  return relax_from(solver, e, pos_plus1);
}

bool DifferencePropagator::enforce_bounds(Solver& solver) {
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const Node& node = nodes_[n];
    for (const BoundEntry& b : node.bounds) {
      if (b.activation != asp::kLitUndef &&
          solver.value(b.activation) != Lbool::True) {
        continue;
      }
      if (node.dist <= b.bound) continue;
      std::vector<Lit> clause;
      explain_bound(n, clause);
      std::sort(clause.begin(), clause.end());
      clause.erase(std::unique(clause.begin(), clause.end()), clause.end());
      for (Lit& l : clause) l = ~l;
      if (b.activation != asp::kLitUndef) clause.push_back(~b.activation);
      const asp::TheoryJustification just{
          asp::TheoryTag::DiffBound,
          {n, b.bound,
           b.activation == asp::kLitUndef ? 0 : asp::proof_int(b.activation)}};
      if (!solver.add_theory_clause(clause, &just)) return false;
      break;  // conflict injected; stop here
    }
  }
  return true;
}

bool DifferencePropagator::propagate(Solver& solver) {
  if (infeasible_) {
    // Positive cycle among unguarded edges: the empty clause is justified
    // by the declared edges alone.
    const asp::TheoryJustification just{asp::TheoryTag::DiffCycle, {}};
    return solver.add_theory_clause({}, &just);
  }
  while (cursor_ < solver.trail().size()) {
    const Lit p = solver.trail()[cursor_];
    const std::size_t pos_plus1 = cursor_ + 1;
    ++cursor_;
    if (p.index() >= watch_.size()) continue;
    for (const EdgeId eid : watch_[p.index()]) {
      Edge& e = edges_[eid];
      undo_stack_.push_back(UndoOp{pos_plus1, UndoKind::EdgeActive, eid, 0, kNone});
      assert(e.pending > 0);
      --e.pending;
      if (e.pending == 0) {
        if (!activate(&solver, eid, pos_plus1)) return false;
      }
    }
  }
  if (partial_eval_) return enforce_bounds(solver);
  return true;
}

void DifferencePropagator::undo_to(const Solver&, std::size_t trail_size) {
  while (!undo_stack_.empty() && undo_stack_.back().pos_plus1 > trail_size) {
    const UndoOp op = undo_stack_.back();
    undo_stack_.pop_back();
    switch (op.kind) {
      case UndoKind::EdgeActive: {
        Edge& e = edges_[op.target];
        ++e.pending;
        e.active = false;
        break;
      }
      case UndoKind::DistChange: {
        Node& n = nodes_[op.target];
        n.dist = op.old_dist;
        n.parent = op.old_parent;
        break;
      }
    }
  }
  cursor_ = std::min(cursor_, trail_size);
}

bool DifferencePropagator::check(Solver& solver) {
  if (!propagate(solver)) return false;
  return enforce_bounds(solver);
}

}  // namespace aspmt::theory
