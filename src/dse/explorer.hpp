// Exact multi-objective design space exploration using ASPmT — the paper's
// headline algorithm.
//
// The explorer enumerates answer sets of the synthesis encoding.  Every
// accepted model's objective vector enters the Pareto archive held by the
// dominance propagator, which from then on prunes (already during search,
// on partial assignments) every region of the design space that the
// archive weakly dominates.  When the solver reports unsatisfiability the
// archive is exactly the Pareto front of the specification — with one
// witness implementation per front point.
//
// There is one implementation of this loop, the portfolio worker of
// parallel_explorer.hpp; explore() is its one-worker case, run inline in
// the calling thread, plus the ε-dominance approximation only it offers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "asp/solver.hpp"
#include "dse/budget.hpp"
#include "dse/options.hpp"
#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"

namespace aspmt::dse {

struct ExploreOptions {
  /// Everything shared with the portfolio explorer — limits, archive kind,
  /// certification, fault-tolerant runtime, observability (see options.hpp).
  CommonOptions common;
  /// ε-dominance approximation (one additive slack per objective axis, in
  /// the specification's axis order).  Empty = exact.  With a non-empty
  /// epsilon the run terminates with an ε-approximate front: every true
  /// Pareto point q is covered by a returned point p with p <= q + eps.
  /// explore() throws std::invalid_argument when the length differs from
  /// the axis count.  The portfolio explorer always runs exact.
  pareto::Vec epsilon;
};

struct ExploreStats {
  std::uint64_t models = 0;      ///< accepted answer sets
  std::uint64_t prunings = 0;    ///< dominance conflicts raised
  std::uint64_t conflicts = 0;   ///< total solver conflicts
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t theory_clauses = 0;
  /// Dominance comparisons in the workers' local archives plus the shared
  /// one.
  std::uint64_t archive_comparisons = 0;
  /// Hybrid pipeline (warmstart.hpp): validated heuristic seeds that entered
  /// the archive before solving, and candidates the validation gate or the
  /// antichain reduction refused.
  std::uint64_t warm_seeds = 0;
  std::uint64_t warm_rejected = 0;
  /// Incremental re-exploration (respec.hpp): learnt clauses installed
  /// behind the replay guard (summed over workers in the portfolio).
  std::uint64_t replayed_clauses = 0;
  /// Wall time of the whole run: search, certification and the final
  /// checkpoint write.
  double seconds = 0.0;
  bool complete = false;  ///< true iff the front is proven exact
  /// Structured cause of termination.  `Completed` iff `complete`, except
  /// after a contained worker failure, where the front may still have been
  /// proven exact by survivors while the reason honestly reports the crash.
  StopReason reason = StopReason::Completed;
};

struct ExploreResult {
  std::vector<pareto::Vec> front;  ///< sorted lexicographically
  /// One witness per front point (parallel to `front`), when collected.
  std::vector<synth::Implementation> witnesses;
  /// Anytime profile: (seconds since start, inserted point) for every
  /// archive insertion, in discovery order.  Later insertions may evict
  /// earlier points; replaying the sequence reconstructs the archive at any
  /// point in time.
  std::vector<std::pair<double, pareto::Vec>> discoveries;
  /// Certified mode only: true once every witness validated and the proof
  /// checker verified the terminating Unsat conclusion.
  bool certified = false;
  /// Why certification failed (or was unavailable); empty when certified or
  /// not requested.
  std::string certificate_error;
  /// Certified mode only: the full proof stream, replayable by
  /// cert::check_proof and tools/aspmt_check.  Streams of runs that stopped
  /// early end with an `X 0` truncation marker.
  std::string proof;
  /// Non-fatal degradations survived during the run (contained exceptions,
  /// missing witnesses, checkpoint I/O failures, rejected resume files).
  /// Empty on a healthy run.
  std::vector<std::string> errors;
  ExploreStats stats;
};

/// Compute the exact Pareto front of `spec`: explore_parallel with one
/// worker, in the calling thread.  A contained exception stops the run with
/// reason WorkerFailure and leads `errors` ("exploration aborted: ...").
[[nodiscard]] ExploreResult explore(const synth::Specification& spec,
                                    const ExploreOptions& options = {});

/// Fill `registry` from a finished run so counter totals equal the run's
/// ExploreStats field-for-field ("explore.models" == stats.models, ...),
/// with derived per-second gauges alongside.  Called automatically at the end
/// of every run when CommonOptions::metrics is set; public so embedders and
/// benches can snapshot ad-hoc runs the same way.
void export_metrics(obs::MetricsRegistry& registry, const ExploreResult& result);

struct WitnessEnumeration {
  std::vector<synth::Implementation> implementations;
  bool complete = false;  ///< false iff `limit` or the deadline cut it short
};

/// Enumerate all distinct implementations achieving exactly the objective
/// vector `point` (which must be Pareto-optimal — otherwise strictly better
/// implementations would slip under the bounds and the function reports
/// them as a contract violation via assertion).  Distinctness is modulo the
/// decision atoms: binding, routing, serialization order.
[[nodiscard]] WitnessEnumeration enumerate_witnesses(
    const synth::Specification& spec, const pareto::Vec& point,
    std::size_t limit = 1000, double time_limit_seconds = 0.0);

}  // namespace aspmt::dse
