// Parallel portfolio exploration — N diversified ASPmT workers, one shared
// Pareto front.  This is the repository's one exploration loop: dse::explore
// (explorer.hpp) is its one-worker case, run inline in the calling thread.
//
// Every worker owns a full independent SynthContext (solver, theories,
// encoding, dominance propagator) configured with a distinct seed, restart
// base and phase polarity, and publishes every accepted model into one
// shared ConcurrentArchive.  Each worker's dominance propagator treats its
// thread-local archive as a snapshot of the shared front and refreshes it
// lazily off a lock-free generation counter, so a point found by any worker
// starts pruning every other worker's search mid-flight.  After each model a
// worker drills down to a Pareto-optimal point by re-solving under
// activation-guarded bounds f <= v.
//
// Work partitioning: as soon as the shared front spans a range in the first
// objective (immediately, under a warm start), it is carved into roughly
// 2*(threads-1) epsilon-constraint slices `latency <= split_i`, each scored
// by its remaining-hypervolume gap (pareto::slice_hypervolume_gaps).  A
// shared SliceScheduler (warmstart.hpp) hands the highest-gap pending slice
// to whichever worker asks next; a worker that exhausts its slice claims
// another, and only falls back to the unconstrained problem when the queue
// is empty — search effort concentrates where the most unexplained
// objective-space volume remains instead of being statically pinned to
// worker indices.  Worker 0 never takes a slice and keeps the caller's
// solver configuration, so it runs exactly the one-worker search.
//
// Exactness: slices and diversification only change the *order* of
// discovery.  The run ends when some worker proves the unconstrained
// problem unsatisfiable under dominance pruning — at that moment the shared
// archive weakly dominates every feasible point and, since every archived
// point is itself a feasible model, it *is* the unique exact Pareto front.
// Hence the front is identical for every thread count (the test layer
// enforces this point-for-point).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "asp/solver.hpp"
#include "dse/explorer.hpp"
#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"

namespace aspmt::dse {

struct ParallelExploreOptions {
  /// Everything shared with dse::explore — limits, archive kind,
  /// certification, fault-tolerant runtime, observability (see options.hpp).
  /// In certified mode every worker proof-logs its own session and the
  /// winning worker's terminating Unsat proof — the completeness
  /// certificate of the whole portfolio — is machine-checked.
  CommonOptions common;
  std::size_t threads = 0;  ///< 0 = std::thread::hardware_concurrency()
  /// Base seed for portfolio diversification; worker w > 0 runs with a
  /// solver seed derived from (seed, w).  Worker 0 always keeps the caller's
  /// solver configuration.
  std::uint64_t seed = 1;
  std::size_t archive_shards = 8;  ///< ConcurrentArchive shard count

  /// Distributed objective-space banding (dse/distributed.hpp).  When
  /// active, every worker permanently assumes
  ///   lo <= objective[objective] <= hi
  /// through activation-guarded theory bounds, and the portfolio's
  /// terminating Unsat is concluded under exactly those activations — which
  /// the proof checker turns into a verified *shard box* (see
  /// cert::CheckResult::shard_boxes).  INT64_MIN / INT64_MAX ends install no
  /// bound at all.  The banded objective must be linear (energy or cost in
  /// the standard encoding; latency's difference logic has no sound floor).
  struct ShardBand {
    bool active = false;
    std::size_t objective = 1;
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  };
  ShardBand shard;

  /// Pre-seeded slice bounds (checkpoint v4 persistence, shard requeue):
  /// when non-empty the SliceScheduler is built from these objective-0
  /// ceilings before any worker spawns instead of waiting for a front
  /// snapshot that spans a range.
  std::vector<std::int64_t> slice_bounds;
};

/// Per-worker accounting for the CLI report and the consistency tests.
struct WorkerReport {
  std::size_t worker = 0;
  std::uint64_t models = 0;            ///< accepted answer sets
  std::uint64_t slice_models = 0;      ///< found while some slice was active
  std::uint64_t slices_claimed = 0;    ///< slices adopted from the scheduler
  std::uint64_t shared_inserts = 0;    ///< points this worker published first
  std::uint64_t rejected_inserts = 0;  ///< beaten to the archive by a peer
  std::uint64_t prunings = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t theory_clauses = 0;
  std::uint64_t archive_comparisons = 0;  ///< in the local snapshot archive
  std::uint64_t replayed_clauses = 0;     ///< installed behind this worker's guard
  double seconds = 0.0;
  bool proved_complete = false;  ///< this worker closed the global Unsat proof
  bool failed = false;   ///< this worker died; `error` holds the reason
  std::string error;     ///< the contained exception's message, if any
};

/// One contained worker death: which worker and why.  All failures are
/// preserved, not just the first.
struct WorkerError {
  std::size_t worker = 0;
  std::string message;
};

struct ParallelExploreResult {
  /// The portfolio's result in dse::explore's shape: front,
  /// witnesses, discoveries (publication order across all workers), proof /
  /// certification outcome, degradations, and stats aggregated over all
  /// workers.  Embedded by composition — the parallel result *is* an
  /// ExploreResult plus per-worker accounting, not a mirror of its fields.
  ExploreResult base;
  /// Every contained worker death, in detection order (worker index +
  /// message — secondary failures are preserved, not dropped).
  std::vector<WorkerError> worker_errors;
  std::vector<WorkerReport> workers;
  /// Every discovered point with its captured witness (not just the final
  /// front — dominated discoveries keep their witnesses too, because shard
  /// proofs reference them through `F` steps).  Filled when certification or
  /// witness collection is on; the distributed merge layer validates the
  /// union of these across shards.
  std::vector<std::pair<pareto::Vec, synth::Implementation>>
      discovery_witnesses;
};

/// Compute the exact Pareto front of `spec` with a portfolio of
/// `options.threads` diversified workers.  With threads == 1 the worker
/// runs inline in the calling thread (no thread is spawned): that run is
/// dse::explore's search, step for step.
[[nodiscard]] ParallelExploreResult explore_parallel(
    const synth::Specification& spec, const ParallelExploreOptions& options = {});

namespace detail {
/// The loop behind both public entry points: explore_parallel passes an
/// empty `epsilon`, dse::explore one worker and its ExploreOptions::epsilon,
/// which every worker's dominance propagator applies.  A non-empty epsilon
/// turns certification off (recorded in certificate_error) and must hold
/// one slack per objective axis — std::invalid_argument otherwise.
[[nodiscard]] ParallelExploreResult run_portfolio(
    const synth::Specification& spec, const ParallelExploreOptions& options,
    const pareto::Vec& epsilon);
}  // namespace detail

}  // namespace aspmt::dse
