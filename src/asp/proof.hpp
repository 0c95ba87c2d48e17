// DRAT-style proof logging for the ASPmT stack.
//
// When a ProofLog is attached, the solver and every theory propagator emit a
// line-oriented trace of the whole incremental session: the constraint
// system as it is declared (input clauses, linear sums, difference edges,
// bound declarations, objective bindings), every inference
// (learnt clauses as RUP additions, theory lemmas with a tagged
// justification), deletions, and one conclusion step per solve() call that
// ends in Unsat.  The stream is replayable by the solver-independent checker
// in src/cert/, which re-runs unit propagation for every RUP step and
// re-derives every theory lemma from the declared theory data alone — so an
// Unsat answer (and with it the exactness of an explored Pareto front)
// becomes a machine-checkable fact instead of a solver's word.
//
// Format (text, one step per line, literals as signed 1-based integers):
//
//   p aspmt 1                         header
//   S  <sum> <n> (<lit> <w>)*        linear sum definition
//   SB <sum> <bound> <act>           sum bound declaration (act 0 = none)
//   SL <sum> <bound> <act>           sum floor declaration  sum >= bound
//                                    (shard banding; act 0 = none)
//   N  <node>                        difference-logic node
//   E  <edge> <from> <to> <w> <n> <lit>*   guarded edge  to >= from + w
//   NB <node> <bound> <act>          node bound declaration
//   O  <obj> <term>                  objective binding; <term> is a tree:
//                                      L <sum> | D <node>
//                                    | X <k> <cap>{k} <term>{k}   lex packing
//                                    | M <k> <term>{k}            min-max
//                                    | W <k> <w>{k} <term>{k}     weighted
//                                    (leaf-only bindings are the legacy form)
//   OB <obj> <bound> <act>           combinator-axis bound declaration:
//                                    objective <obj> <= bound while act holds
//   I  <lit>* 0                      input clause (axiom)
//   G  <guard> <lit>* 0              guarded replay axiom: the clause
//                                    (-guard v lits) is installed.  The
//                                    checker admits it only when the guard
//                                    variable is *pure*: fresh w.r.t. every
//                                    axiom/declaration and occurring only
//                                    negatively in axioms, so any model of
//                                    the original system extends with
//                                    guard=false and Unsat is preserved.
//   L  <lit>* 0                      learnt clause, RUP-checkable
//   T  <tag> <payload>* ; <lit>* 0   theory lemma with justification
//   D  <lit>* 0                      clause deletion
//   U  <lit>* 0                      Unsat conclusion under assumptions
//                                    (no literals = global unsatisfiability)
//   M  0                             model accepted (marker)
//   F  <k> <v>* 0                    feasible objective vector published
//   X  0                             stream truncated (budget/interrupt);
//                                    everything above remains checkable
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "asp/literal.hpp"

namespace aspmt::asp {

/// Which theory justifies an injected lemma; drives the checker's
/// re-derivation.
enum class TheoryTag : std::uint8_t {
  DiffCycle,    ///< positive cycle among edges guarded by the clause literals
  DiffBound,    ///< longest path to a node exceeds a declared bound
  LinearBound,  ///< weighted true guards exceed a declared sum bound
  Dominance,    ///< region weakly dominated by a certified feasible point
  LinearLower,  ///< falsified guards forfeit too much weight for a sum floor
  CombinatorBound,  ///< combinator-axis lower bound exceeds a declared OB bound
};

struct TheoryJustification {
  TheoryTag tag;
  /// Tag-specific integers (bounds, node/sum ids, points).
  std::vector<std::int64_t> payload;
};

/// Append-only proof stream.  Not thread-safe: in portfolio solving every
/// worker owns its own log.
///
/// The stream is stored as line-aligned chunks of about kChunkBytes, each in
/// an anonymous mapping of its own, so appending never moves written bytes.
/// A full chunk is *sealed* — never written again — and handed to the chunk
/// sink, which may read it in place on another thread (the certifier's
/// checker does) until take_text() or the log's destruction.
class ProofLog {
 public:
  /// Size of a chunk's mapping; a line longer than this gets a chunk sized
  /// to fit it.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  /// Called on the appending thread with every chunk as it is sealed.
  using ChunkSink = std::function<void(std::string_view)>;

  ProofLog();
  ~ProofLog();
  ProofLog(const ProofLog&) = delete;
  ProofLog& operator=(const ProofLog&) = delete;

  // ---- constraint-system declarations ------------------------------------
  void def_sum(std::uint32_t sum, std::span<const std::pair<Lit, std::int64_t>> terms);
  void def_sum_bound(std::uint32_t sum, std::int64_t bound, Lit activation);
  /// `sum >= bound` floor (distributed shard banding): `SL <sum> <bound> <act>`.
  void def_sum_lower_bound(std::uint32_t sum, std::int64_t bound, Lit activation);
  void def_node(std::uint32_t node);
  void def_edge(std::uint32_t edge, std::uint32_t from, std::uint32_t to,
                std::int64_t weight, std::span<const Lit> guards);
  void def_node_bound(std::uint32_t node, std::int64_t bound, Lit activation);
  /// Objective binding: `O <obj> <tree_tokens>`.  A leaf axis binds with
  /// the one-token tree `L <sum>` or `D <node>`.
  void def_objective_term(std::size_t objective, std::string_view tree_tokens);
  /// Combinator-axis bound declaration: `OB <obj> <bound> <act>`.
  void def_objective_bound(std::size_t objective, std::int64_t bound,
                           Lit activation);

  // ---- inference steps ----------------------------------------------------
  void input_clause(std::span<const Lit> lits) { clause_step('I', lits); }
  /// Replayed clause installed behind an assumption guard: logs
  /// `G <guard> <lits> 0`, meaning the clause (-guard v lits) holds by
  /// construction.  See the format doc for the purity conditions the
  /// checker enforces.
  void guarded_clause(Lit guard, std::span<const Lit> lits);
  void learnt_clause(std::span<const Lit> lits) { clause_step('L', lits); }
  void delete_clause(std::span<const Lit> lits) { clause_step('D', lits); }
  void theory_clause(const TheoryJustification& just, std::span<const Lit> lits);
  void conclude_unsat(std::span<const Lit> assumptions) {
    clause_step('U', assumptions);
  }
  void sat_marker() {
    line_ += "M 0\n";
    end_line();
  }
  void feasible_point(std::span<const std::int64_t> point);
  /// Honest label for a proof cut short by a budget trip or interrupt: the
  /// prefix stays verifiable step by step, but no Unsat conclusion (and
  /// hence no completeness claim) can follow.
  void truncation_marker() {
    line_ += "X 0\n";
    end_line();
  }

  /// Route every chunk sealed from now on to `sink` (empty: to nobody).
  void set_chunk_sink(ChunkSink sink) { sink_ = std::move(sink); }
  /// Seal the chunk being written, however full, and hand it to the sink.
  void flush();
  /// The whole stream as one string, built chunk by chunk, each chunk
  /// unmapped as soon as it is copied, so the text is never held twice.  The
  /// log is left empty and must not be appended to again.
  [[nodiscard]] std::string take_text();

 private:
  struct Chunk {
    char* data = nullptr;
    std::size_t size = 0;      ///< bytes written
    std::size_t capacity = 0;  ///< bytes mapped
  };

  void clause_step(char kind, std::span<const Lit> lits);
  void append_lit(Lit l);
  void append_int(std::int64_t v);
  /// Move the finished line in `line_` into the chunk being written,
  /// sealing it first when the line does not fit.
  void end_line();

  std::string line_;           // the step being formatted
  std::vector<Chunk> chunks_;  // sealed chunks, then the one being written
  bool open_ = false;          // chunks_.back() is still being written
  ChunkSink sink_;
};

/// Signed 1-based integer encoding of a literal (DIMACS convention).
[[nodiscard]] inline std::int64_t proof_int(Lit l) noexcept {
  const auto v = static_cast<std::int64_t>(l.var()) + 1;
  return l.positive() ? v : -v;
}

}  // namespace aspmt::asp
