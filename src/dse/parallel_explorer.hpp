// Parallel portfolio exploration — N diversified ASPmT workers, one shared
// Pareto front.  This is the repository's one exploration loop: dse::explore
// (explorer.hpp) is its one-worker case, run inline in the calling thread.
//
// Every worker owns a full independent SynthContext (solver, theories,
// encoding, dominance propagator) and publishes every accepted model into
// one shared ConcurrentArchive.  Each worker's dominance propagator treats
// its thread-local archive as a snapshot of the shared front and refreshes
// it lazily off a lock-free generation counter, so a point found by any
// worker starts pruning every other worker's search mid-flight.  After each
// model a worker drills down to a Pareto-optimal point by re-solving under
// activation-guarded bounds f <= v.
//
// There is no work partitioning: every worker searches the whole problem.
// Worker 0 keeps the caller's solver configuration, so it runs exactly the
// one-worker search; workers 1..N-1 differ from it only by diversify()'s
// seed, restart cadence and activity-decay jitter.  A dead worker leaves
// nothing to rescue: the survivors' own searches cover its share.
//
// Exactness: diversification only changes the *order* of discovery.  The
// run ends when some worker proves the problem unsatisfiable under
// dominance pruning — at that moment the shared archive weakly dominates
// every feasible point and, since every archived point is itself a
// feasible model, it *is* the unique exact Pareto front.  Hence the front
// is identical for every thread count (the test layer enforces this
// point-for-point).
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

  /// Distributed objective-space banding (dse/distributed.hpp).  When
  /// active, every worker permanently assumes
  ///   lo <= objective[objective] <= hi
  /// through activation-guarded theory bounds, and the portfolio's
  /// terminating Unsat is concluded under exactly those activations — which
  /// the proof checker turns into a verified *shard box* (see
  /// cert::CheckResult::shard_boxes).  INT64_MIN / INT64_MAX ends install no
  /// bound at all.  The banded objective must pass shard_axis_error.
  struct ShardBand {
    bool active = false;
    std::size_t objective = 1;
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  };
  ShardBand shard;
};

/// The one shard-axis rule, checked before any worker starts: "" when axis
/// `objective` of `spec` is a linear leaf (an energy or cost metric), else
/// the diagnostic.  Difference logic (latency) has no sound floor and no
/// combinator a sound single-sum floor/ceiling decomposition; the merged
/// checker would refuse their shard boxes anyway.  explore_parallel and
/// explore_distributed throw it as std::invalid_argument.
[[nodiscard]] std::string shard_axis_error(const synth::Specification& spec,
                                           std::size_t objective);

/// Per-worker accounting for the CLI report and the consistency tests.
struct WorkerReport {
  std::size_t worker = 0;
  std::uint64_t models = 0;            ///< accepted answer sets
  /// Always 0: the portfolio no longer partitions work into slices.  Kept
  /// only because perfbench still reads it (`portfolio.slices_claimed`).
  std::uint64_t slices_claimed = 0;
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
  /// proofs reference them through `F` steps).  The distributed merge layer
  /// validates the union of these across shards.
  std::vector<std::pair<pareto::Vec, synth::Implementation>>
      discovery_witnesses;
};

/// Compute the exact Pareto front of `spec` with a portfolio of
/// `options.threads` diversified workers.  With threads == 1 the worker
/// runs inline in the calling thread (no thread is spawned): that run is
/// dse::explore's search, step for step.  Throws std::invalid_argument,
/// before any worker starts, when the specification is invalid or an active
/// shard band sits on an axis shard_axis_error rejects.
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
