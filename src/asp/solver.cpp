#include "asp/solver.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/recorder.hpp"

namespace aspmt::asp {

Solver::Solver(SolverOptions options) : options_(options) {
  heuristic_.set_decay(options_.var_decay);
  max_learnts_ = options_.learnt_start;
  if (options_.seed != 0) jitter_rng_.reseed(options_.seed);
  // Slot for decision level 0; new_var() keeps the array sized num_vars + 1
  // so compute_lbd can index by level directly.
  lbd_seen_.push_back(0);
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(assign_.size());
  assign_.push_back(Lbool::Undef);
  vardata_.push_back({});
  if (options_.seed != 0) {
    phase_.push_back(jitter_rng_.chance(0.5) ? 1 : 0);
  } else {
    phase_.push_back(options_.default_phase ? 1 : 0);
  }
  seen_.push_back(0);
  lbd_seen_.push_back(0);
  watches_.emplace_back();  // positive literal
  watches_.emplace_back();  // negative literal
  heuristic_.grow_to(v);
  // Jitter breaks ties between zero-activity variables without disturbing
  // domain boosts (which are many orders of magnitude larger).
  if (options_.seed != 0) heuristic_.boost(v, 1e-6 * jitter_rng_.uniform());
  return v;
}

ClauseRef Solver::allocate(std::span<const Lit> lits, bool learnt) {
  return arena_.alloc(lits, learnt);
}

void Solver::attach(ClauseRef cref) {
  const Clause c = arena_[cref];
  assert(c.size() >= 2);
  // Binary clauses are resolved from the watcher alone (the blocker is the
  // whole rest of the clause); the flag spares propagation the arena load.
  const ClauseRef tagged = c.size() == 2 ? (cref | kWatcherBinaryFlag) : cref;
  watches_[(~c[0]).index()].push_back(Watcher{tagged, c[1]});
  watches_[(~c[1]).index()].push_back(Watcher{tagged, c[0]});
}

bool Solver::add_clause(std::vector<Lit> lits) {
  assert(decision_level() == 0);
  if (!ok_) return false;
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> c;
  c.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i + 1 < lits.size() && lits[i + 1] == ~l) return true;  // tautology
    const Lbool v = value(l);
    if (v == Lbool::True) return true;  // satisfied at root
    if (v == Lbool::False) continue;    // false at root: drop
    c.push_back(l);
  }
  // Log the full clause, not the root-simplified one: the checker re-derives
  // the simplification from its own root propagation.
  if (proof_ != nullptr) proof_->input_clause(lits);
  if (c.empty()) {
    ok_ = false;
    return false;
  }
  if (c.size() == 1) {
    enqueue(c[0], kClauseRefUndef);
    if (propagate_clauses() != kClauseRefUndef) ok_ = false;
    return ok_;
  }
  const ClauseRef cref = allocate(c, /*learnt=*/false);
  problem_clauses_.push_back(cref);
  attach(cref);
  return true;
}

Lit Solver::add_guarded_clauses(std::span<const std::vector<Lit>> clauses,
                                std::size_t* installed) {
  assert(decision_level() == 0);
  const Lit guard = Lit::make(new_var(), true);
  std::size_t count = 0;
  for (const std::vector<Lit>& c : clauses) {
    if (!ok_) break;
    if (c.empty()) continue;
    bool in_range = true;
    for (const Lit l : c) in_range = in_range && l.var() < guard.var();
    if (!in_range) continue;
    std::vector<Lit> g;
    g.reserve(c.size() + 1);
    g.push_back(~guard);
    g.insert(g.end(), c.begin(), c.end());
    // add_clause would log the clause as an `I` axiom; a replayed clause is
    // only axiomatic *under its guard*, so detach the log around the install
    // and emit the `G` step (full, unsimplified tail) ourselves.
    ProofLog* const saved = proof_;
    proof_ = nullptr;
    add_clause(std::move(g));
    proof_ = saved;
    if (saved != nullptr) saved->guarded_clause(guard, c);
    ++count;
  }
  if (installed != nullptr) *installed = count;
  return guard;
}

std::vector<std::vector<Lit>> Solver::export_learnts(
    std::uint32_t max_var, std::size_t max_clauses) const {
  std::vector<std::vector<Lit>> out;
  // Root units first: the most general reusable facts.  Between solve()
  // calls the solver sits at level 0, so the whole trail qualifies.  No
  // ok_ gate: after the terminating Unsat the units and learnts are still
  // implied clauses, and a completed run is the prime re-exploration donor.
  for (const Lit l : trail_) {
    if (level(l.var()) != 0) break;
    if (l.var() >= max_var) continue;
    if (out.size() >= max_clauses) return out;
    out.push_back({l});
  }
  std::vector<std::pair<std::uint32_t, ClauseRef>> ranked;
  ranked.reserve(learnt_clauses_.size());
  for (const ClauseRef cref : learnt_clauses_) {
    const Clause c = arena_[cref];
    if (c.deleted()) continue;
    bool in_range = true;
    for (const Lit l : c.lits()) in_range = in_range && l.var() < max_var;
    if (!in_range) continue;
    ranked.emplace_back(c.lbd(), cref);
  }
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [lbd, cref] : ranked) {
    (void)lbd;
    if (out.size() >= max_clauses) break;
    const Clause c = arena_[cref];
    out.emplace_back(c.lits().begin(), c.lits().end());
  }
  return out;
}

void Solver::add_propagator(TheoryPropagator* propagator) {
  assert(propagator != nullptr);
  propagators_.push_back(propagator);
}

bool Solver::add_theory_clause(std::span<const Lit> in,
                               const TheoryJustification* just) {
  ++stats_.theory_clauses;
  std::vector<Lit> lits(in.begin(), in.end());
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  std::vector<Lit> c;
  c.reserve(lits.size());
  for (std::size_t i = 0; i < lits.size(); ++i) {
    const Lit l = lits[i];
    if (i + 1 < lits.size() && lits[i + 1] == ~l) return true;  // tautology
    const Lbool v = value(l);
    if (v == Lbool::True && level(l.var()) == 0) return true;  // permanently sat
    if (v == Lbool::False && level(l.var()) == 0) continue;    // permanently false
    c.push_back(l);
  }
  if (proof_ != nullptr) {
    // An untagged lemma cannot be replayed; skipping it makes later RUP
    // steps that depend on it fail, so certification fails closed instead
    // of silently trusting the propagator.
    assert(just != nullptr && "proof-logged theory lemma needs a justification");
    if (just != nullptr) proof_->theory_clause(*just, lits);
  }
  if (c.empty()) {
    ok_ = false;
    return false;
  }
  // Order literals so that watchable ones come first: non-false literals,
  // then false literals by decreasing level.  Deterministic tie-break.
  std::sort(c.begin(), c.end(), [this](Lit a, Lit b) {
    const bool fa = value(a) == Lbool::False;
    const bool fb = value(b) == Lbool::False;
    if (fa != fb) return !fa;
    if (fa && fb && level(a.var()) != level(b.var()))
      return level(a.var()) > level(b.var());
    return a < b;
  });
  const ClauseRef cref = allocate(c, /*learnt=*/true);
  Clause cl = arena_[cref];
  cl.set_lbd(compute_lbd(cl.lits()));
  if (cl.size() >= 2) {
    attach(cref);
    learnt_clauses_.push_back(cref);
    ++stats_.learnt_clauses;
  }
  const Lbool v0 = value(cl[0]);
  if (v0 == Lbool::True) return true;
  const bool rest_false = cl.size() == 1 || value(cl[1]) == Lbool::False;
  if (v0 == Lbool::Undef && rest_false) {
    enqueue(cl[0], cref);
    return true;
  }
  if (v0 == Lbool::Undef) return true;  // at least two watchable literals
  // Every literal false: theory conflict.
  pending_conflict_ = cref;
  ++stats_.theory_conflicts;
  return false;
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  assert(value(l) == Lbool::Undef);
  const Var v = l.var();
  assign_[v] = lbool_of(l.positive());
  vardata_[v] = VarData{reason, decision_level()};
  trail_.push_back(l);
}

ClauseRef Solver::propagate_clauses() {
  // Pushing a replacement watch into *another* watch list could, as far as
  // the compiler can prove, move any buffer in sight, so inside the loop it
  // would re-load the assignment array and list pointers on every
  // iteration.  None of them can actually move here: no variables are
  // created during propagation, and a replacement watch never lands on the
  // list being traversed (that list holds watchers of ~p, which is False,
  // while the new watch literal is non-False).  Hoist the invariant
  // pointers into locals.
  const Lbool* const assign = assign_.data();
  const auto val = [assign](Lit l) noexcept {
    return lit_value(assign[l.var()], l);
  };
  std::vector<Watcher>* const lists = watches_.data();
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_.propagations;
    auto& ws = lists[p.index()];
    Watcher* const wd = ws.data();
    std::size_t i = 0;
    std::size_t j = 0;
    const std::size_t n = ws.size();
    const Lit* const arena_base = arena_.base();
    while (i < n) {
      const Watcher w = wd[i];
      // The dependent load chain watcher -> clause words is the dominant
      // stall; hint the next watcher's clause while this one is handled.
      // Binary watchers never dereference the arena, so their (flagged)
      // refs would prefetch a junk address — mask keeps it in-buffer.
      if (i + 1 < n) {
        __builtin_prefetch(arena_base + (wd[i + 1].clause & ~kWatcherBinaryFlag));
      }
      // Blocker first: a satisfied blocker makes the clause irrelevant
      // without touching its memory (the common case on dense lists).
      if (val(w.blocker) == Lbool::True) {
        wd[j++] = w;
        ++i;
        continue;
      }
      if ((w.clause & kWatcherBinaryFlag) != 0) {
        // Binary: the blocker is the rest of the clause — unit or conflict.
        const ClauseRef cref = w.clause & ~kWatcherBinaryFlag;
        wd[j++] = w;
        ++i;
        if (val(w.blocker) == Lbool::False) {
          while (i < n) wd[j++] = wd[i++];
          ws.resize(j);
          qhead_ = trail_.size();
          return cref;
        }
        enqueue(w.blocker, cref);
        continue;
      }
      Clause c = arena_[w.clause];
      if (c.deleted()) {
        ++i;  // drop lazily
        continue;
      }
      const Lit false_lit = ~p;
      ++i;
      // Satisfied-by-the-other-watch is the common revisit during
      // enumeration; test it before normalizing the slot order so that
      // path never dirties the clause's cache line.
      const Lit other = c[0] == false_lit ? c[1] : c[0];
      if (val(other) == Lbool::True) {
        wd[j++] = Watcher{w.clause, other};
        continue;
      }
      if (c[0] == false_lit) std::swap(c[0], c[1]);
      assert(c[1] == false_lit);
      bool moved = false;
      const std::size_t size = c.size();
      for (std::size_t k = 2; k < size; ++k) {
        if (val(c[k]) != Lbool::False) {
          std::swap(c[1], c[k]);
          lists[(~c[1]).index()].push_back(Watcher{w.clause, c[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      wd[j++] = Watcher{w.clause, c[0]};
      if (val(c[0]) == Lbool::False) {
        while (i < n) wd[j++] = wd[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return w.clause;
      }
      enqueue(c[0], w.clause);
    }
    ws.resize(j);
  }
  return kClauseRefUndef;
}

ClauseRef Solver::propagate_fixpoint() {
  for (;;) {
    if (pending_conflict_ != kClauseRefUndef) {
      const ClauseRef pc = std::exchange(pending_conflict_, kClauseRefUndef);
      qhead_ = trail_.size();
      return pc;
    }
    if (const ClauseRef c = propagate_clauses(); c != kClauseRefUndef) return c;
    const std::size_t before = trail_.size();
    for (auto* p : propagators_) {
      const bool ok = p->propagate(*this);
      if (!ok || pending_conflict_ != kClauseRefUndef) {
        const ClauseRef pc = std::exchange(pending_conflict_, kClauseRefUndef);
        qhead_ = trail_.size();
        return pc;  // may be undef when ok_ dropped to false
      }
      if (trail_.size() != before) break;  // run BCP before the next theory
    }
    if (trail_.size() == before) return kClauseRefUndef;
  }
}

std::uint32_t Solver::compute_lbd(std::span<const Lit> lits) {
  // lbd_seen_ is sized num_vars + 1 and indexed by decision level directly
  // (levels never exceed the variable count), so distinct levels can never
  // alias and under-count the LBD.
  ++lbd_stamp_;
  std::uint32_t lbd = 0;
  for (const Lit l : lits) {
    const std::uint32_t lv = vardata_[l.var()].level;
    if (lv == 0) continue;
    if (lbd_seen_[lv] != lbd_stamp_) {
      lbd_seen_[lv] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd == 0 ? 1 : lbd;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     std::uint32_t& bt_level) {
  learnt.clear();
  learnt.push_back(kLitUndef);  // slot for the asserting literal
  std::vector<Lit>& to_clear = minimize_stack_;
  to_clear.clear();

  int counter = 0;
  Lit p = kLitUndef;
  ClauseRef cref = conflict;
  std::size_t index = trail_.size();

  do {
    assert(cref != kClauseRefUndef);
    Clause c = arena_[cref];
    // Binary reasons enqueue the watcher blocker, which may be stored as
    // c[1]; put the implied literal first so the skip below stays valid.
    if (p != kLitUndef && c[0] != p) {
      assert(c.size() == 2 && c[1] == p);
      std::swap(c[0], c[1]);
    }
    if (c.learnt()) c.bump_activity(clause_inc_);
    const std::size_t start = (p == kLitUndef) ? 0 : 1;
    for (std::size_t k = start; k < c.size(); ++k) {
      const Lit q = c[k];
      const Var v = q.var();
      if (seen_[v] != 0 || vardata_[v].level == 0) continue;
      seen_[v] = 1;
      to_clear.push_back(q);
      heuristic_.bump(v);
      if (vardata_[v].level == decision_level()) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    while (seen_[trail_[--index].var()] == 0) {
    }
    p = trail_[index];
    cref = vardata_[p.var()].reason;
    seen_[p.var()] = 0;
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Local clause minimization: a literal is redundant if its reason consists
  // only of literals already in the learnt clause (or fixed at the root).
  std::size_t out = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (!literal_redundant(learnt[i])) learnt[out++] = learnt[i];
  }
  learnt.resize(out);

  for (const Lit q : to_clear) seen_[q.var()] = 0;
  seen_[p.var()] = 0;

  if (learnt.size() == 1) {
    bt_level = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < learnt.size(); ++i) {
      if (vardata_[learnt[i].var()].level > vardata_[learnt[max_i].var()].level)
        max_i = i;
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = vardata_[learnt[1].var()].level;
  }
}

bool Solver::literal_redundant(Lit l) {
  const ClauseRef rref = vardata_[l.var()].reason;
  if (rref == kClauseRefUndef) return false;
  Clause r = arena_[rref];
  // Binary reasons may carry the implied literal in slot 1 (see analyze).
  if (r[0].var() != l.var()) {
    assert(r.size() == 2 && r[1].var() == l.var());
    std::swap(r[0], r[1]);
  }
  for (std::size_t k = 1; k < r.size(); ++k) {
    const Lit q = r[k];
    if (vardata_[q.var()].level != 0 && seen_[q.var()] == 0) return false;
  }
  return true;
}

void Solver::record_learnt(std::vector<Lit> learnt, std::uint32_t bt_level) {
  cancel_until(bt_level);
  ++stats_.learnt_clauses;
  if (proof_ != nullptr) proof_->learnt_clause(learnt);
  if (learnt.size() == 1) {
    assert(bt_level == 0);
    if (options_.exchange != nullptr) options_.exchange->offer(learnt, 1);
    enqueue(learnt[0], kClauseRefUndef);
    return;
  }
  const ClauseRef cref = allocate(learnt, /*learnt=*/true);
  Clause c = arena_[cref];
  c.set_lbd(compute_lbd(c.lits()));
  c.bump_activity(clause_inc_);
  if (options_.exchange != nullptr) options_.exchange->offer(learnt, c.lbd());
  attach(cref);
  learnt_clauses_.push_back(cref);
  enqueue(c[0], cref);
}

void Solver::import_shared() {
  assert(decision_level() == 0);
  received_.clear();
  options_.exchange->receive(received_);
  std::vector<Lit> c;
  for (const SharedClause& shared : received_) {
    if (!ok_) return;
    // Root-simplify: at level 0 every assigned literal is fixed for good.
    c.clear();
    bool satisfied = false;
    for (const Lit l : shared.lits) {
      const Lbool v = value(l);
      if (v == Lbool::True) {
        satisfied = true;
        break;
      }
      if (v == Lbool::Undef) c.push_back(l);
    }
    if (satisfied) continue;
    if (c.empty()) {
      ok_ = false;
      return;
    }
    if (c.size() == 1) {
      enqueue(c[0], kClauseRefUndef);  // the search's next fixpoint propagates it
      continue;
    }
    const ClauseRef cref = allocate(c, /*learnt=*/true);
    arena_[cref].set_lbd(shared.lbd);
    attach(cref);
    learnt_clauses_.push_back(cref);
  }
}

void Solver::cancel_until(std::uint32_t target_level) {
  if (decision_level() <= target_level) return;
  const std::size_t new_size = trail_lim_[target_level];
  for (std::size_t i = trail_.size(); i-- > new_size;) {
    const Lit l = trail_[i];
    const Var v = l.var();
    if (options_.phase_saving) phase_[v] = l.positive() ? 1 : 0;
    assign_[v] = Lbool::Undef;
    vardata_[v].reason = kClauseRefUndef;
    heuristic_.insert(v);
  }
  trail_.resize(new_size);
  trail_lim_.resize(target_level);
  qhead_ = new_size;
  for (auto* p : propagators_) p->undo_to(*this, new_size);
}

Lit Solver::pick_branch_literal() {
  for (;;) {
    const Var v = heuristic_.pop();
    if (v == kNoVar) return kLitUndef;
    if (assign_[v] == Lbool::Undef) {
      return Lit::make(v, phase_[v] != 0);
    }
  }
}

bool Solver::is_locked(ClauseRef cref) const {
  const Clause c = arena_[cref];
  const Lit l = c[0];
  if (vardata_[l.var()].reason == cref && value(l) != Lbool::Undef) return true;
  // A binary clause can be the reason of either of its literals (the
  // watcher enqueues the blocker without reordering the stored clause).
  if (c.size() == 2) {
    const Lit o = c[1];
    return vardata_[o.var()].reason == cref && value(o) != Lbool::Undef;
  }
  return false;
}

void Solver::reduce_learnt_db() {
  std::sort(learnt_clauses_.begin(), learnt_clauses_.end(),
            [this](ClauseRef a, ClauseRef b) {
              const Clause ca = arena_[a];
              const Clause cb = arena_[b];
              if (ca.lbd() != cb.lbd()) return ca.lbd() > cb.lbd();
              return ca.activity() < cb.activity();
            });
  const std::size_t target = learnt_clauses_.size() / 2;
  std::size_t removed = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < learnt_clauses_.size(); ++i) {
    const ClauseRef cref = learnt_clauses_[i];
    const Clause c = arena_[cref];
    const bool keep = removed >= target || c.lbd() <= 2 || c.size() <= 2 ||
                      is_locked(cref);
    if (keep) {
      learnt_clauses_[out++] = cref;
    } else {
      if (proof_ != nullptr) proof_->delete_clause(c.lits());
      arena_.free(cref);
      ++removed;
      ++stats_.deleted_clauses;
    }
  }
  learnt_clauses_.resize(out);
  maybe_garbage_collect();
}

void Solver::maybe_garbage_collect() {
  if (options_.gc_fraction <= 0.0) return;
  const auto wasted = static_cast<double>(arena_.wasted_words());
  const auto size = static_cast<double>(arena_.size_words());
  if (size > 0.0 && wasted >= size * options_.gc_fraction) garbage_collect();
}

void Solver::garbage_collect() {
  assert(pending_conflict_ == kClauseRefUndef);
  ClauseArena to;
  to.reserve(arena_.size_words() - arena_.wasted_words());

  // Relocation order fixes the new layout: reasons first (they are the
  // clauses locked by the current trail), then problem clauses, then the
  // learnt database, then whatever only watchers still reference.  Within
  // every list the relative order — and with it the search trajectory —
  // is preserved exactly.
  for (const Lit l : trail_) {
    ClauseRef& r = vardata_[l.var()].reason;
    if (r != kClauseRefUndef) arena_.reloc(r, to);
  }
  for (ClauseRef& cref : problem_clauses_) arena_.reloc(cref, to);
  for (ClauseRef& cref : learnt_clauses_) arena_.reloc(cref, to);
  for (auto& ws : watches_) {
    std::size_t out = 0;
    for (Watcher& w : ws) {
      const ClauseRef tag = w.clause & kWatcherBinaryFlag;
      ClauseRef cref = w.clause & ~kWatcherBinaryFlag;
      // Watchers of clauses dropped by reduce_learnt_db die with the copy.
      if (!arena_.reloc_if_alive(cref, to)) continue;
      w.clause = cref | tag;
      ws[out++] = w;
    }
    ws.resize(out);
  }
  swap(arena_, to);
  ++stats_.arena_gcs;
}

std::uint64_t Solver::luby(std::uint64_t i) noexcept {
  // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  std::uint64_t k = 1;
  while ((1ULL << (k + 1)) - 1 <= i) ++k;
  while (i != (1ULL << k) - 1) {
    i -= (1ULL << k) - 1;
    k = 1;
    while ((1ULL << (k + 1)) - 1 <= i) ++k;
  }
  return 1ULL << (k - 1);
}

Solver::Result Solver::solve(std::span<const Lit> assumptions,
                             const util::Deadline* deadline) {
  if (!ok_) {
    if (proof_ != nullptr) proof_->conclude_unsat({});
    return Result::Unsat;
  }
  if (options_.recorder != nullptr) {
    options_.recorder->record(obs::EventKind::SolveStart,
                              static_cast<std::int64_t>(assumptions.size()));
  }
  cancel_until(0);
  model_.clear();
  const Result r = search(assumptions, deadline);
  cancel_until(0);
  if (proof_ != nullptr) {
    // With ok_ still true the refutation holds only under the assumptions;
    // once root unsatisfiability is established the claim is global.
    if (r == Result::Unsat) proof_->conclude_unsat(ok_ ? assumptions : std::span<const Lit>{});
    if (r == Result::Sat) proof_->sat_marker();
  }
  if (options_.recorder != nullptr) {
    options_.recorder->record(obs::EventKind::SolveEnd,
                              static_cast<std::int64_t>(r),
                              static_cast<std::int64_t>(stats_.conflicts),
                              static_cast<std::int64_t>(stats_.propagations));
  }
  return r;
}

Solver::Result Solver::search(std::span<const Lit> assumptions,
                              const util::Deadline* deadline) {
  std::uint64_t restart_round = 0;
  std::uint64_t conflict_budget =
      options_.restart_base * luby(restart_round + 1);
  std::uint64_t conflicts_this_round = 0;
  std::vector<Lit> learnt;
  if (options_.monitor != nullptr) options_.monitor->poll(stats_);
  if (options_.exchange != nullptr) import_shared();

  for (;;) {
    if ((deadline != nullptr && deadline->expired()) ||
        (options_.stop != nullptr &&
         options_.stop->load(std::memory_order_relaxed))) {
      cancel_until(0);
      return Result::Unknown;
    }
    const ClauseRef conflict = propagate_fixpoint();
    if (!ok_) return Result::Unsat;
    if (conflict != kClauseRefUndef) {
      ++stats_.conflicts;
      ++conflicts_this_round;
      std::uint32_t max_level = 0;
      for (const Lit l : arena_[conflict].lits()) {
        max_level = std::max(max_level, vardata_[l.var()].level);
      }
      if (max_level == 0) {
        ok_ = false;
        return Result::Unsat;
      }
      if (max_level < decision_level()) cancel_until(max_level);
      std::uint32_t bt_level = 0;
      analyze(conflict, learnt, bt_level);
      record_learnt(std::move(learnt), bt_level);
      learnt = {};
      heuristic_.decay();
      clause_inc_ *= 1.0F / 0.999F;
      if (clause_inc_ > 1e20F) {
        for (const ClauseRef cref : learnt_clauses_) {
          arena_[cref].scale_activity(1e-20F);
        }
        clause_inc_ *= 1e-20F;
      }
      if (options_.gc_every_conflicts != 0 &&
          stats_.conflicts % options_.gc_every_conflicts == 0) {
        garbage_collect();
      }
      if (options_.monitor != nullptr &&
          stats_.conflicts % options_.monitor_interval == 0) {
        options_.monitor->poll(stats_);
      }
      continue;
    }

    // No conflict.
    if (conflicts_this_round >= conflict_budget) {
      ++stats_.restarts;
      if (options_.recorder != nullptr) {
        options_.recorder->record(obs::EventKind::Restart,
                                  static_cast<std::int64_t>(stats_.restarts));
      }
      ++restart_round;
      conflict_budget = options_.restart_base * luby(restart_round + 1);
      conflicts_this_round = 0;
      cancel_until(0);
      if (options_.monitor != nullptr) options_.monitor->poll(stats_);
      if (options_.exchange != nullptr) import_shared();
      continue;
    }
    if (static_cast<double>(learnt_clauses_.size()) > max_learnts_) {
      reduce_learnt_db();
      max_learnts_ *= options_.learnt_growth;
    }

    // Establish assumptions, one decision level each.
    if (decision_level() < assumptions.size()) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == Lbool::False) {
        return Result::Unsat;  // conflicts with the assumptions
      }
      new_decision_level();
      if (value(a) == Lbool::Undef) enqueue(a, kClauseRefUndef);
      continue;
    }

    const Lit next = pick_branch_literal();
    if (next == kLitUndef) {
      // Total assignment: let every theory accept or reject it.
      bool rejected = false;
      const std::size_t before = trail_.size();
      for (auto* p : propagators_) {
        if (!p->check(*this)) {
          rejected = true;
          break;
        }
        if (pending_conflict_ != kClauseRefUndef) {
          rejected = true;
          break;
        }
        if (trail_.size() != before) break;  // theory enqueued something
      }
      if (rejected) continue;                   // conflict handled next loop
      if (trail_.size() != before) continue;    // propagate the new literals
      ++stats_.models;
      model_.assign(assign_.begin(), assign_.end());
      return Result::Sat;
    }
    ++stats_.decisions;
    new_decision_level();
    enqueue(next, kClauseRefUndef);
  }
}

}  // namespace aspmt::asp
