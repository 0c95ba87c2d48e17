// Solver-independent proof checker for the `p aspmt 1` stream emitted by
// asp::ProofLog.
//
// The checker shares no code with the solver: it re-parses the trace into
// its own clause database with its own watched-literal unit propagation,
// verifies every learnt clause by RUP (asserting the negation and
// propagating to a conflict), re-derives every theory lemma from the
// declared theory data alone (sum/edge/bound/objective declarations),
// and discharges every Unsat conclusion by asserting its assumptions and
// propagating.  A proof that survives makes the solver's Unsat answers —
// and with them the exactness of an explored Pareto front — independently
// machine-checked facts.
//
// Trust boundary: declarations (I/S/SB/SL/N/E/NB/O/OB) are axioms of the
// constraint system — they assert what problem was solved, not how.  The
// certification layer (cert/certify.hpp) closes the remaining gap on the
// model side by validating every feasible point's witness against the
// specification with synth::Validator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aspmt::cert {

struct CheckOptions {
  /// Demand a global (assumption-free) Unsat conclusion in the stream —
  /// the completeness certificate of an exhaustive exploration.
  bool require_global_unsat = false;
  /// Accept `F` steps as evidence of feasibility for dominance lemmas.
  /// The certification layer disables this and supplies `feasible_points`
  /// instead, so only externally validated witnesses count.
  bool trust_feasible_steps = true;
  /// Externally certified feasible objective vectors.  When
  /// trust_feasible_steps is false these are the only admissible dominance
  /// sources, and every `F` step must match one of them.
  std::vector<std::vector<std::int64_t>> feasible_points;
  /// When >= 0, extract *shard boxes* on this (linear) objective: every
  /// verified Unsat conclusion whose assumptions are all pure bound
  /// activations on the objective's sum contributes the interval
  /// [max SL floor, min SB ceiling] it proves empty modulo dominance.  See
  /// CheckResult::shard_boxes and cert::certify.
  std::int64_t shard_objective = -1;
};

struct CheckResult {
  bool ok = false;
  /// The stream contains a verified assumption-free Unsat conclusion.
  bool concluded_global_unsat = false;
  /// The stream carries an `X` truncation marker: a budget trip or
  /// interrupt cut the session short.  The replayed prefix is still sound,
  /// but completeness claims must not be made from this stream.
  bool truncated = false;
  std::size_t input_clauses = 0;
  /// Guarded replay axioms (`G` steps) admitted after the purity check:
  /// each guard variable is fresh w.r.t. every axiom/declaration and occurs
  /// only negatively in the installed clauses, so any model of the original
  /// system extends with guard=false and Unsat conclusions carry over.
  std::size_t guarded_clauses = 0;
  std::size_t learnt_clauses = 0;
  std::size_t theory_lemmas = 0;
  std::size_t deletions = 0;
  std::size_t conclusions = 0;
  std::size_t feasible_points = 0;
  /// With CheckOptions::shard_objective set: closed intervals [lo, hi] of
  /// the shard objective proven empty modulo dominance — each comes from a
  /// verified Unsat conclusion whose assumptions are *pure* box activations
  /// (positive literals that occur in no input clause, sum term, edge guard
  /// or replay step, and activate bounds only on the shard objective's sum).
  /// Purity makes the cross-shard model-extension argument sound: a
  /// feasible design point inside the box extends to a model of the declared
  /// system with the box activations true and every other auxiliary variable
  /// false, so the verified Unsat means every such point is weakly dominated
  /// by a certified feasible point.  INT64_MIN/INT64_MAX encode unbounded
  /// ends; an assumption-free global Unsat contributes the full line.
  std::vector<std::array<std::int64_t, 2>> shard_boxes;
  /// A bound declaration (SB/SL/NB/OB) with a negative activation literal
  /// was seen.  The model-extension argument above sets every auxiliary
  /// variable false, which switches such a bound on, so certification
  /// rejects streams carrying one.  An activation of 0 is not flagged: that
  /// bound is part of the declared system, like the spec's own deadline,
  /// and cert::check_shards compares it across shards with the rest of the
  /// declaration core.
  bool unsafe_bounds = false;
  /// First failure, with its 1-based line number; empty when ok.
  std::string error;

  friend bool operator==(const CheckResult&, const CheckResult&) = default;
};

/// The incremental checker: feed the stream in pieces split anywhere — mid
/// line, mid number, one byte at a time — and finish() returns the
/// CheckResult check_proof gives for the concatenated bytes, field for
/// field.  Complete lines are replayed in place as they arrive; only a line
/// cut by a piece boundary is copied.
class ProofChecker {
 public:
  explicit ProofChecker(CheckOptions options);
  ~ProofChecker();
  ProofChecker(const ProofChecker&) = delete;
  ProofChecker& operator=(const ProofChecker&) = delete;

  /// Add one externally validated point to CheckOptions::feasible_points
  /// (the dominance sources when trust_feasible_steps is false).
  void admit(std::vector<std::int64_t> point);
  /// Replay the next bytes of the stream.  False once the check has failed;
  /// later bytes are ignored.
  bool feed(std::string_view bytes);
  /// End of stream: replay a last unterminated line, apply the end-of-stream
  /// conditions and return the verdict.  Call once.
  [[nodiscard]] CheckResult finish();
  /// The check failed on an `F` step or `DOM` lemma that no admitted point
  /// supports, so more admitted points might have let it pass.
  [[nodiscard]] bool failed_for_want_of_points() const noexcept;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Replay and verify a complete proof stream: ProofChecker fed in one piece.
[[nodiscard]] CheckResult check_proof(std::string_view proof,
                                      const CheckOptions& options = {});

}  // namespace aspmt::cert
