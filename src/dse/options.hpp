// dse::CommonOptions — the single definition of every knob shared by
// dse::explore and the portfolio explorer.
//
// Both ExploreOptions and ParallelExploreOptions embed one CommonOptions by
// composition (`opts.common.time_limit_seconds = ...`); the wrapper structs
// only add their mode-specific extras (epsilon; threads/seed/shards).  No
// field is declared twice across the two explorer headers, and anything
// attachable in one place — budgets, checkpoints, fault plans, and the
// observability sink/registry — is attachable to both entry points the same
// way.
#pragma once

#include <cstdint>
#include <string>

#include "asp/solver.hpp"
#include "dse/warmstart.hpp"

namespace aspmt::obs {
class EventSink;
class MetricsRegistry;
}  // namespace aspmt::obs

namespace aspmt::dse {

class Budget;
struct Checkpoint;
struct ClauseReplay;
struct FaultPlan;

struct CommonOptions {
  double time_limit_seconds = 0.0;  ///< 0 = unlimited
  bool partial_evaluation = true;   ///< Figure 3 ablation switch
  std::string archive_kind = "quadtree";  ///< or "linear" (Figure 4 ablation)
  bool collect_witnesses = true;
  /// After every model, immediately descend to a Pareto-optimal point by
  /// re-solving under activation-guarded bounds f <= v: mediocre interim
  /// points never enter the archive, so dominance pruning is maximal from
  /// the first insertion on.
  bool drill_down = true;
  /// Binding-pair floor bounds in the encoding (ablation switch; disabling
  /// never changes the front, only the pruning power).
  bool objective_floors = true;
  /// Certified mode: proof-log the whole session, validate every discovered
  /// witness with synth::Validator, and machine-check the terminating Unsat
  /// proof with the independent checker — on success the result's
  /// `certified` flag asserts the front is exactly the Pareto front of the
  /// declared system.  Forces witness collection on and objective floors
  /// off (floor explanations are not independently re-derivable; the front
  /// is unaffected).  Incompatible with a non-empty epsilon.
  bool certify = false;
  asp::SolverOptions solver_options{};  ///< portfolio workers diversify this
  /// Hybrid heuristic–exact pipeline (warmstart.hpp): a budgeted heuristic
  /// pass whose validated candidates seed the archive before solving, so
  /// dominance pruning bites from the first conflict.  Exactness-preserving:
  /// every seed is re-validated and proof-logged, and `certify` still
  /// certifies warm runs end-to-end (unlike `resume`, whose points carry no
  /// in-stream derivations).
  WarmStartOptions warm_start;

  // ---- fault-tolerant runtime (see budget.hpp / checkpoint.hpp) ----------
  std::uint64_t conflict_budget = 0;  ///< 0 = unlimited (total over workers)
  std::size_t mem_limit_mb = 0;       ///< 0 = unlimited; ceiling on peak RSS
  /// External budget/token (CLI signal handling, embedding).  When set it
  /// governs the run and the three numeric limits above are ignored — the
  /// caller configured the Budget itself.
  Budget* budget = nullptr;
  /// Periodic archive snapshots ("" = off), written atomically.
  std::string checkpoint_path;
  double checkpoint_interval_seconds = 30.0;
  /// Warm start: seed the archive (and witness table) from a loaded
  /// checkpoint.  Rejected with a recorded error when the spec fingerprint
  /// does not match.  Resumed runs are not certifiable.
  const Checkpoint* resume = nullptr;
  /// Incremental re-exploration (respec.hpp): learnt clauses from a previous
  /// session, installed behind a fresh assumption guard after encoding.  The
  /// guard makes replay exactness-neutral — the run drops it on the first
  /// Unsat under it and re-proves completeness without — so a stale dump can
  /// delay the proof but never distort the front.  Certifiable: each replayed
  /// clause is logged as a `G` proof step.  Ignored when base_vars does not
  /// match the encoding's variable count.
  const ClauseReplay* clause_replay = nullptr;
  /// v3 checkpoints: cap on learnt clauses dumped per snapshot (0 = none).
  std::size_t checkpoint_clause_dump = 1024;
  /// Fault-injection plan; nullptr = consult ASPMT_FAULT_INJECT.
  const FaultPlan* fault = nullptr;

  // ---- observability (see obs/, DESIGN.md §11) ---------------------------
  /// Event consumer, fed through per-thread lock-free rings and a collector
  /// thread.  nullptr (default) = zero-observer mode: no collector spawns
  /// and every instrumented site reduces to a null-pointer test.  Attaching
  /// a sink never changes the search trajectory, the front, or the proof
  /// stream — only observes them.
  obs::EventSink* sink = nullptr;
  /// When set, the explorer fills this registry at end of run: counter
  /// totals mirror ExploreStats exactly, gauges carry derived rates and
  /// per-worker shares, histograms carry per-insert archive work.
  obs::MetricsRegistry* metrics = nullptr;
};

}  // namespace aspmt::dse
