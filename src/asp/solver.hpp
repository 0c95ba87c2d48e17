// Conflict-driven Boolean constraint solver with a theory-propagator hook —
// the CDNL engine underneath the ASPmT stack.
//
// Features: two-watched-literal propagation with blockers, 1UIP clause
// learning with local minimization, VSIDS + phase saving, Luby restarts,
// LBD/activity-based learnt-clause reduction, assumptions, uniform
// handling of clauses injected by theory propagators at any decision level
// (the clingo-style ASPmT integration described in the paper series), and
// learnt-clause exchange with peer solvers of a portfolio.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "asp/clause.hpp"
#include "asp/heuristic.hpp"
#include "asp/literal.hpp"
#include "asp/proof.hpp"
#include "asp/propagator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace aspmt::obs {
class Recorder;
}

namespace aspmt::asp {

struct SolverStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learnt_clauses = 0;
  std::uint64_t deleted_clauses = 0;
  std::uint64_t theory_clauses = 0;
  std::uint64_t theory_conflicts = 0;
  std::uint64_t models = 0;
  std::uint64_t arena_gcs = 0;  ///< clause-arena compactions
};

/// Off-hot-path observer of a running search.  The solver calls poll() at
/// solve() entry, at every restart, and every SolverOptions::monitor_interval
/// conflicts — frequently enough to enforce resource budgets with sub-second
/// latency, rarely enough that the poll may take locks or syscalls.  A
/// monitor typically accounts conflicts against a shared budget and trips
/// the solver's stop token, making the current solve() return Unknown.
class SearchMonitor {
 public:
  virtual ~SearchMonitor() = default;
  virtual void poll(const SolverStats& stats) = 0;
};

/// One clause handed between solvers, with the LBD its exporter computed.
struct SharedClause {
  std::vector<Lit> lits;
  std::uint32_t lbd = 0;
};

/// Learnt-clause exchange between solvers of the same formula (ManySAT /
/// plingeling style).  The solver offers every clause it learns, with its
/// LBD, and at decision level 0 — at solve() entry and after every restart
/// — installs what receive() hands over.  The exchange decides what is safe
/// to share: every clause it delivers must follow from what the receiving
/// solver itself holds.
class ClauseExchange {
 public:
  virtual ~ClauseExchange() = default;
  /// A clause the solver has just learnt.  Called once per conflict, so an
  /// implementation should reject cheaply.
  virtual void offer(std::span<const Lit> lits, std::uint32_t lbd) = 0;
  /// Append to `out` the clauses this solver has not received yet.
  virtual void receive(std::vector<SharedClause>& out) = 0;
};

struct SolverOptions {
  double var_decay = 0.95;
  std::uint32_t restart_base = 100;   ///< Luby unit, in conflicts.
  double learnt_growth = 1.3;         ///< Growth factor of the learnt-DB cap.
  std::uint32_t learnt_start = 2000;  ///< Initial learnt-DB cap.
  bool default_phase = false;         ///< Polarity when no phase is saved.
  bool phase_saving = true;
  /// Diversification seed for portfolio solving.  0 (default) keeps the
  /// solver fully deterministic; non-zero adds a tiny random jitter to the
  /// initial VSIDS activity of every variable (breaking tie-order between
  /// otherwise equal variables) and randomizes initial phases — the
  /// trajectory changes, the answer never does.
  std::uint64_t seed = 0;
  /// Optional cooperative cancellation: polled alongside the deadline at
  /// every search step; when it reads true, solve() returns Unknown.  The
  /// pointee must outlive every solve() call.
  const std::atomic<bool>* stop = nullptr;
  /// Compact the clause arena once at least this fraction of it is dead
  /// space left behind by reduce_learnt_db.  Compaction relocates the
  /// surviving clauses and rewrites all watchers/reasons; it never changes
  /// the search trajectory.  <= 0 disables compaction entirely.
  double gc_fraction = 0.25;
  /// Testing/diagnostics: additionally force a compaction every N
  /// conflicts (0 = wasted-fraction trigger only).  Search results, stats
  /// and proof streams are identical for every value.
  std::uint32_t gc_every_conflicts = 0;
  /// Optional resource monitor, polled off the hot path (see SearchMonitor).
  /// The pointee must outlive every solve() call.  Monitors observe the
  /// search; they never alter its trajectory.
  SearchMonitor* monitor = nullptr;
  /// Optional learnt-clause exchange with peer solvers (see ClauseExchange).
  /// The pointee must outlive every solve() call.  Unlike a monitor, it
  /// changes the search: received clauses prune and propagate.
  ClauseExchange* exchange = nullptr;
  /// Conflicts between two monitor polls (also polled at solve() entry and
  /// at every restart).  Must be non-zero.
  std::uint32_t monitor_interval = 1024;
  /// Optional observability producer (see obs/recorder.hpp): solve()
  /// entry/exit and restarts are recorded when attached.  nullptr (default)
  /// costs one pointer test per solve() and per restart — the propagation
  /// loop itself carries no instrumentation at all.  Recording never alters
  /// the search trajectory.
  obs::Recorder* recorder = nullptr;
};

class Solver {
 public:
  enum class Result : std::uint8_t { Sat, Unsat, Unknown };

  explicit Solver(SolverOptions options = {});

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // ---- problem construction (root level) --------------------------------

  /// Allocate a fresh variable and return its index.
  Var new_var();

  [[nodiscard]] std::uint32_t num_vars() const noexcept {
    return static_cast<std::uint32_t>(assign_.size());
  }

  /// Add a problem clause.  Returns false if the solver became trivially
  /// unsatisfiable (conflict at the root level).  May be called between
  /// solve() invocations (the solver is always at level 0 there).
  bool add_clause(std::vector<Lit> lits);

  /// Install foreign clauses (e.g. a learnt-clause dump from a previous
  /// session) behind one fresh assumption guard g: every clause c becomes
  /// (~g v c).  Solving with g among the assumptions makes the replayed
  /// clauses bite; solving without (or after learning ~g) silently disables
  /// them, so a wrong or stale dump can prune nothing from the final
  /// answer — completeness never depends on the replay.  Clauses that
  /// mention variables >= the guard's (out of the declared range) or are
  /// empty are skipped.  Proof-logged as `G` steps, which the checker
  /// admits via the guard-purity argument (see asp/proof.hpp).  Returns g;
  /// `installed`, when non-null, receives the number of clauses installed.
  Lit add_guarded_clauses(std::span<const std::vector<Lit>> clauses,
                          std::size_t* installed = nullptr);

  /// Snapshot the reusable clause state for a later session: all root-level
  /// units plus the live learnt clauses whose variables are all < max_var
  /// (the stable encoding prefix), best (lowest-LBD) first, capped at
  /// max_clauses.  Call between solve() invocations (level 0).  Also valid
  /// after a final Unsat verdict (ok() == false): units and learnts remain
  /// implied clauses of the formula — exactly what a later session replays —
  /// so a completed run's snapshot still carries its dump.
  [[nodiscard]] std::vector<std::vector<Lit>> export_learnts(
      std::uint32_t max_var, std::size_t max_clauses = 4096) const;

  /// Register a theory propagator (non-owning; the caller keeps ownership
  /// and must outlive the solver's use).
  void add_propagator(TheoryPropagator* propagator);

  /// False once root-level unsatisfiability has been established.
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  // ---- solving -----------------------------------------------------------

  /// Search for a model extending `assumptions`.  Returns Unknown only when
  /// the deadline expires.  On Sat the model is available via model_value()
  /// until the next call that modifies the solver.
  Result solve(std::span<const Lit> assumptions = {},
               const util::Deadline* deadline = nullptr);

  // ---- assignment inspection (propagators + conflict analysis) -----------

  [[nodiscard]] Lbool value(Var v) const noexcept { return assign_[v]; }
  [[nodiscard]] Lbool value(Lit l) const noexcept { return lit_value(assign_[l.var()], l); }
  [[nodiscard]] std::span<const Lit> trail() const noexcept { return trail_; }
  [[nodiscard]] std::uint32_t decision_level() const noexcept {
    return static_cast<std::uint32_t>(trail_lim_.size());
  }
  [[nodiscard]] std::uint32_t level(Var v) const noexcept {
    return vardata_[v].level;
  }

  // ---- model access (after Result::Sat) ----------------------------------

  [[nodiscard]] bool model_value(Var v) const noexcept {
    return model_[v] == Lbool::True;
  }
  [[nodiscard]] const std::vector<Lbool>& model() const noexcept { return model_; }

  // ---- theory interface ---------------------------------------------------

  /// Inject a clause discovered by theory reasoning.  Handles every case
  /// uniformly: satisfied/open clauses are attached, unit clauses propagate,
  /// falsified clauses raise a conflict.  Returns false iff the clause is
  /// conflicting under the current assignment; the propagator must then
  /// immediately return false from its propagate()/check() callback.
  /// When proof logging is on, `just` tags the lemma for the checker;
  /// propagators must supply it whenever proof() is non-null.
  bool add_theory_clause(std::span<const Lit> lits,
                         const TheoryJustification* just = nullptr);

  /// Attach a proof log (nullptr detaches).  Must be set before any clause
  /// is added so the trace covers the whole session; the pointee must
  /// outlive every solver call.
  void set_proof(ProofLog* proof) noexcept { proof_ = proof; }
  [[nodiscard]] ProofLog* proof() const noexcept { return proof_; }

  /// Strong one-off priority boost so the variable is decided early
  /// (domain heuristics, e.g. binding before routing).
  void boost_variable(Var v, double amount) { heuristic_.boost(v, amount); }

  /// Suggest the polarity tried first for a variable.
  void set_preferred_phase(Var v, bool positive) {
    phase_[v] = positive;
  }

  [[nodiscard]] const SolverStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const SolverOptions& options() const noexcept { return options_; }

  [[nodiscard]] std::size_t num_problem_clauses() const noexcept {
    return problem_clauses_.size();
  }

 private:
  // search machinery
  Result search(std::span<const Lit> assumptions, const util::Deadline* deadline);
  [[nodiscard]] ClauseRef propagate_fixpoint();
  [[nodiscard]] ClauseRef propagate_clauses();
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, std::uint32_t& bt_level);
  [[nodiscard]] bool literal_redundant(Lit l);
  void record_learnt(std::vector<Lit> learnt, std::uint32_t bt_level);
  /// Install the clauses the exchange delivers (level 0 only).
  void import_shared();
  void enqueue(Lit l, ClauseRef reason);
  void cancel_until(std::uint32_t target_level);
  void new_decision_level() { trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size())); }
  [[nodiscard]] Lit pick_branch_literal();
  void reduce_learnt_db();
  void maybe_garbage_collect();
  void garbage_collect();
  void attach(ClauseRef cref);
  [[nodiscard]] std::uint32_t compute_lbd(std::span<const Lit> lits);
  [[nodiscard]] bool is_locked(ClauseRef cref) const;
  [[nodiscard]] static std::uint64_t luby(std::uint64_t i) noexcept;

  /// Allocate a clause in the arena (literals are copied inline).
  ClauseRef allocate(std::span<const Lit> lits, bool learnt);

  SolverOptions options_;
  SolverStats stats_;

  ClauseArena arena_;
  std::vector<ClauseRef> problem_clauses_;
  std::vector<ClauseRef> learnt_clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index of the *falsified* literal

  /// Reason and decision level of a variable, packed into 8 bytes so
  /// enqueue and conflict analysis touch one cache line per variable
  /// instead of two (MiniSat's VarData layout).
  struct VarData {
    ClauseRef reason = kClauseRefUndef;
    std::uint32_t level = 0;
  };

  std::vector<Lbool> assign_;
  std::vector<VarData> vardata_;
  std::vector<Lit> trail_;
  std::vector<std::uint32_t> trail_lim_;
  std::size_t qhead_ = 0;

  VsidsHeap heuristic_;
  util::Rng jitter_rng_;
  std::vector<char> phase_;
  std::vector<char> seen_;
  std::vector<Lit> minimize_stack_;

  std::vector<TheoryPropagator*> propagators_;
  ClauseRef pending_conflict_ = kClauseRefUndef;
  ProofLog* proof_ = nullptr;

  std::vector<Lbool> model_;
  std::vector<SharedClause> received_;  // import_shared's reused buffer

  double max_learnts_ = 0.0;
  float clause_inc_ = 1.0F;
  std::vector<std::uint32_t> lbd_seen_;
  std::uint32_t lbd_stamp_ = 0;

  bool ok_ = true;
};

}  // namespace aspmt::asp
