#include "theory/linear_sum.hpp"

#include <algorithm>
#include <cassert>

#include "asp/solver.hpp"

namespace aspmt::theory {

using asp::Lbool;
using asp::Lit;
using asp::Solver;

LinearSumPropagator::SumId LinearSumPropagator::add_sum(std::string name,
                                                        std::vector<Term> terms) {
  const SumId id = static_cast<SumId>(sums_.size());
  Sum s;
  s.name = std::move(name);
  s.terms = std::move(terms);
  std::sort(s.terms.begin(), s.terms.end(),
            [](const Term& a, const Term& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.guard < b.guard;
            });
  for (std::uint32_t t = 0; t < s.terms.size(); ++t) {
    const Term& term = s.terms[t];
    assert(term.weight >= 0);
    s.total += term.weight;
    s.slack += term.weight;
    const std::uint32_t need =
        std::max(term.guard.index(), (~term.guard).index()) + 1;
    if (watch_true_.size() < need) watch_true_.resize(need);
    watch_true_[term.guard.index()].push_back(WatchRef{id, t});
  }
  if (proof_ != nullptr) {
    std::vector<std::pair<Lit, std::int64_t>> terms_out;
    terms_out.reserve(s.terms.size());
    for (const Term& t : s.terms) terms_out.emplace_back(t.guard, t.weight);
    proof_->def_sum(id, terms_out);
  }
  sums_.push_back(std::move(s));
  return id;
}

void LinearSumPropagator::add_bound(SumId s, std::int64_t bound, Lit activation) {
  if (proof_ != nullptr) proof_->def_sum_bound(s, bound, activation);
  sums_[s].bounds.push_back(BoundEntry{bound, activation});
}

void LinearSumPropagator::add_lower_bound(SumId s, std::int64_t bound,
                                          Lit activation) {
  if (proof_ != nullptr) proof_->def_sum_lower_bound(s, bound, activation);
  sums_[s].lower_bounds.push_back(BoundEntry{bound, activation});
}

void LinearSumPropagator::explain_lower_bound(SumId id, std::int64_t threshold,
                                              std::vector<Lit>& out) const {
  if (threshold <= 0) return;
  const Sum& s = sums_[id];
  std::int64_t gathered = 0;
  for (const Term& t : s.terms) {  // heavy terms first: short explanations
    if (t.weight == 0) break;
    if (!t.contributing) continue;
    out.push_back(t.guard);
    gathered += t.weight;
    if (gathered >= threshold) return;
  }
  assert(gathered >= threshold && "lower bound smaller than threshold");
}

void LinearSumPropagator::explain_forfeit(SumId id, std::int64_t threshold,
                                          const Solver& solver,
                                          std::vector<Lit>& out) const {
  if (threshold <= 0) return;
  const Sum& s = sums_[id];
  std::int64_t gathered = 0;
  for (const Term& t : s.terms) {  // heavy terms first: short explanations
    if (t.weight == 0) break;
    if (solver.value(t.guard) != Lbool::False) continue;
    out.push_back(t.guard);
    gathered += t.weight;
    if (gathered >= threshold) return;
  }
  assert(gathered >= threshold && "forfeited weight smaller than threshold");
}

std::int64_t LinearSumPropagator::value_under_model(
    SumId id, const std::vector<Lbool>& model) const {
  std::int64_t value = 0;
  for (const Term& t : sums_[id].terms) {
    if (lit_value(model[t.guard.var()], t.guard) == Lbool::True) value += t.weight;
  }
  return value;
}

bool LinearSumPropagator::enforce_bound(Solver& solver, SumId id) {
  Sum& s = sums_[id];
  // The tightest active bound subsumes all the others.
  const BoundEntry* tightest = nullptr;
  for (const BoundEntry& b : s.bounds) {
    if (b.activation != asp::kLitUndef &&
        solver.value(b.activation) != Lbool::True) {
      continue;
    }
    if (tightest == nullptr || b.bound < tightest->bound) tightest = &b;
  }
  if (tightest == nullptr) return true;
  const std::int64_t bound = tightest->bound;
  const Lit activation = tightest->activation;
  // The same re-derivation covers both lemma shapes below: the negated
  // guards in the clause carry weight > bound under the declared bound.
  const asp::TheoryJustification just{
      asp::TheoryTag::LinearBound,
      {id, bound,
       activation == asp::kLitUndef ? 0 : asp::proof_int(activation)}};
  std::vector<Lit> clause;
  if (s.lower > bound) {
    // Conflict: enough true guards already exceed the bound.
    explain_lower_bound(id, bound + 1, clause);
    for (Lit& l : clause) l = ~l;
    if (activation != asp::kLitUndef) clause.push_back(~activation);
    return solver.add_theory_clause(clause, &just);
  }
  // Implication: any single undecided guard that would overshoot is false.
  const std::int64_t room = bound - s.lower;
  for (const Term& t : s.terms) {
    if (t.weight <= room) break;  // sorted descending: nothing heavier left
    if (solver.value(t.guard) != Lbool::Undef) continue;
    clause.clear();
    explain_lower_bound(id, bound - t.weight + 1, clause);
    for (Lit& l : clause) l = ~l;
    clause.push_back(~t.guard);
    if (activation != asp::kLitUndef) clause.push_back(~activation);
    if (!solver.add_theory_clause(clause, &just)) return false;
  }
  return true;
}

bool LinearSumPropagator::enforce_lower_bound(Solver& solver, SumId id) {
  Sum& s = sums_[id];
  if (s.lower_bounds.empty()) return true;
  // The largest active floor subsumes all the others.
  const BoundEntry* tightest = nullptr;
  for (const BoundEntry& b : s.lower_bounds) {
    if (b.activation != asp::kLitUndef &&
        solver.value(b.activation) != Lbool::True) {
      continue;
    }
    if (tightest == nullptr || b.bound > tightest->bound) tightest = &b;
  }
  if (tightest == nullptr || tightest->bound <= 0) return true;
  const std::int64_t bound = tightest->bound;
  const Lit activation = tightest->activation;
  // Both lemma shapes share one re-derivation: the positive guards in the
  // clause, all assumed false, forfeit so much weight that the sum can no
  // longer reach the declared floor.
  const asp::TheoryJustification just{
      asp::TheoryTag::LinearLower,
      {id, bound,
       activation == asp::kLitUndef ? 0 : asp::proof_int(activation)}};
  const std::int64_t upper = s.lower + s.slack;
  std::vector<Lit> clause;
  if (upper < bound) {
    // Conflict: the falsified guards forfeit weight > total - bound.
    explain_forfeit(id, s.total - bound + 1, solver, clause);
    if (activation != asp::kLitUndef) clause.push_back(~activation);
    return solver.add_theory_clause(clause, &just);
  }
  // Implication: any undecided guard whose loss would undershoot is true.
  const std::int64_t surplus = upper - bound;
  for (const Term& t : s.terms) {
    if (t.weight <= surplus) break;  // sorted descending: nothing heavier left
    if (solver.value(t.guard) != Lbool::Undef) continue;
    clause.clear();
    explain_forfeit(id, s.total - bound - t.weight + 1, solver, clause);
    clause.push_back(t.guard);
    if (activation != asp::kLitUndef) clause.push_back(~activation);
    if (!solver.add_theory_clause(clause, &just)) return false;
  }
  return true;
}

bool LinearSumPropagator::propagate(Solver& solver) {
  while (cursor_ < solver.trail().size()) {
    const Lit p = solver.trail()[cursor_];
    const std::size_t pos = cursor_;
    ++cursor_;
    auto process = [&](std::uint32_t watch_index, bool became_true) {
      if (watch_index >= watch_true_.size()) return;
      for (const WatchRef& w : watch_true_[watch_index]) {
        Sum& s = sums_[w.sum];
        Term& t = s.terms[w.term];
        s.slack -= t.weight;
        if (became_true) {
          s.lower += t.weight;
          t.contributing = true;
        }
        undo_stack_.push_back(UndoOp{pos, w.sum, t.weight, became_true, w.term});
      }
    };
    process(p.index(), /*became_true=*/true);     // guards equal to p
    process((~p).index(), /*became_true=*/false);  // guards falsified by p
  }
  // Activation literals may have become true without touching any guard;
  // enforcing is cheap, so always sweep bounded sums (unless the ablation
  // switch restricts evaluation to total assignments).
  if (!partial_eval_) return true;
  for (SumId id = 0; id < sums_.size(); ++id) {
    if (!enforce_bound(solver, id)) return false;
    if (!enforce_lower_bound(solver, id)) return false;
  }
  return true;
}

void LinearSumPropagator::undo_to(const Solver&, std::size_t trail_size) {
  while (!undo_stack_.empty() && undo_stack_.back().trail_pos >= trail_size) {
    const UndoOp op = undo_stack_.back();
    undo_stack_.pop_back();
    Sum& s = sums_[op.sum];
    s.slack += op.weight;
    if (op.was_true) {
      s.lower -= op.weight;
      s.terms[op.term].contributing = false;
    }
  }
  cursor_ = std::min(cursor_, trail_size);
}

bool LinearSumPropagator::check(Solver& solver) {
  if (!propagate(solver)) return false;
  for (SumId id = 0; id < sums_.size(); ++id) {
    if (!enforce_bound(solver, id)) return false;
    if (!enforce_lower_bound(solver, id)) return false;
  }
  return true;
}

}  // namespace aspmt::theory
