// The dominance propagator — the heart of exact multi-objective DSE with
// ASPmT.
//
// It holds a snapshot of the run's Pareto archive (refreshed from the shared
// front, see attach_shared).  At every propagation fixpoint it assembles the
// objective-space *lower-bound corner* of the current partial assignment
// (partial assignment evaluation) and asks the archive for a
// weak dominator: if some archived point p is <= the corner componentwise,
// then every completion of this partial assignment is weakly dominated by p
// and the whole subtree is pruned with a theory nogood built from the
// per-objective bound explanations.  When the enumeration finally runs dry,
// the archive *is* the exact Pareto front.
//
// Soundness across the run: a point is only ever removed from the archive
// when a new point dominates it, and the blocked region of the dominator is
// a superset of the removed point's region — so clauses learned from older
// archive states remain valid.
#pragma once

#include <set>

#include "asp/propagator.hpp"
#include "dse/objective_manager.hpp"
#include "pareto/archive.hpp"

namespace aspmt::asp {
class ProofLog;
}

namespace aspmt::pareto {
class ConcurrentArchive;
}

namespace aspmt::obs {
class Recorder;
}

namespace aspmt::dse {

class DominancePropagator final : public asp::TheoryPropagator {
 public:
  /// Both references must outlive the propagator.
  DominancePropagator(const ObjectiveManager& objectives, pareto::Archive& archive)
      : objectives_(objectives), archive_(archive) {}

  /// Ablation switch: when disabled, dominance is only enforced on total
  /// assignments (the pre-DATE'17 behaviour).
  void set_partial_evaluation(bool enabled) noexcept { partial_eval_ = enabled; }

  /// Enable ε-dominance: additionally block every region some archive point
  /// p epsilon-dominates (f >= p - eps componentwise).  The run then
  /// terminates with an ε-approximate Pareto set: every true front point q
  /// has an archive point p with p <= q + eps.  Empty vector (default) means
  /// exact exploration.  Must be set before solving starts and never
  /// relaxed (blocked regions may only grow).
  void set_epsilon(pareto::Vec epsilon) { epsilon_ = std::move(epsilon); }

  /// Number of subtrees pruned by dominance conflicts.
  [[nodiscard]] std::uint64_t prunings() const noexcept { return prunings_; }

  /// Observability: emit a DominancePrune event on every pruning conflict.
  /// Only the (rare) conflict path records; the no-dominator fast path of
  /// enforce() is untouched.  nullptr (default) disables recording.
  void set_recorder(obs::Recorder* recorder) noexcept { recorder_ = recorder; }

  /// Treat the local archive as a snapshot of `shared` and keep it fresh
  /// (every exploration worker does, the lone one of dse::explore too).
  /// Every enforce() polls the shared generation counter (one relaxed
  /// atomic load — lock-free) and, only when it moved, pulls the newly
  /// published points into the local archive, so dominance pruning
  /// tightens mid-search as peer workers discover better points.
  /// Always sound: the local snapshot lags the shared front, and
  /// dominance-blocked regions only ever grow.
  void attach_shared(pareto::ConcurrentArchive* shared) noexcept {
    shared_ = shared;
    synced_generation_ = 0;
  }

  /// Pull any pending shared-front updates into the local archive now
  /// (workers call this right after publishing their own point).
  void sync_shared();

  /// Certified portfolio mode: emit an `F` feasible-point step into `proof`
  /// for every point sync_shared() pulls from the shared front (each point
  /// at most once).  Every shared point a DOM lemma of this worker may cite
  /// — peer discoveries, warm-start seeds, the worker's own publications —
  /// then has its F step earlier in this worker's stream, which is what the
  /// trust-mode checker (aspmt_check without --require-unsat's certify
  /// companion) demands.  nullptr (default) disables emission.
  void set_proof(asp::ProofLog* proof) noexcept { proof_ = proof; }

  // -- TheoryPropagator ----------------------------------------------------
  bool propagate(asp::Solver& solver) override {
    return partial_eval_ ? enforce(solver) : true;
  }
  void undo_to(const asp::Solver&, std::size_t) override {}
  bool check(asp::Solver& solver) override { return enforce(solver); }

 private:
  bool enforce(asp::Solver& solver);

  const ObjectiveManager& objectives_;
  pareto::Archive& archive_;
  pareto::Vec corner_;  // scratch, avoids per-fixpoint allocation
  pareto::Vec epsilon_;  // empty = exact
  std::uint64_t prunings_ = 0;
  bool partial_eval_ = true;
  pareto::ConcurrentArchive* shared_ = nullptr;  // non-owning; may be null
  obs::Recorder* recorder_ = nullptr;            // non-owning; may be null
  asp::ProofLog* proof_ = nullptr;               // non-owning; may be null
  std::uint64_t synced_generation_ = 0;
  std::vector<pareto::Vec> sync_buffer_;  // scratch for fetch_updates
  std::set<pareto::Vec> proof_emitted_;   // F-step dedup across syncs
};

}  // namespace aspmt::dse
