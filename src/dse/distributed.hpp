// Distributed objective-space sharding — multi-process cube-and-conquer
// exploration with a certified front merge.
//
// The objective space is split along one linear objective into K contiguous
// bands ("shards"), chosen at the quantiles of a budgeted heuristic sample
// so each band holds a comparable amount of the discovered mass.  Each shard
// is explored by an independent portfolio (dse/parallel_explorer.hpp) under
// permanent activation-guarded band bounds
//   lo <= objective <= hi,
// so a shard's terminating Unsat is concluded under exactly its band
// activations — which the proof checker turns into a verified *shard box*
// (cert::CheckResult::shard_boxes) and cert::certify combines with a
// coverage argument into one machine-checked exactness claim for the merged
// front (the bands tile the whole objective line; see cert/certify.hpp).
//
// Each shard is farmed to a forked worker — `aspmt_dse shard-worker` — over
// a plain pipe; the coordinator is one thread that launches workers, reads
// their pipes and merges what they return.  The worker streams a line
// protocol on stdout (handshake, heartbeats, per-point `PT` lines, then one
// length-prefixed `RESULT` payload) that the coordinator turns into
// ShardPoint/ShardHeartbeat observability events.  A worker that exits
// without a result, goes silent past the heartbeat timeout, or returns a
// payload that does not parse or whose points do not have the
// specification's axis count is a failed shard: its worker is SIGKILLed
// (when still running) and the shard is requeued under the shared
// supervision policy (dse/supervise.hpp): capped retries with exponential
// backoff + deterministic jitter, then circuit-breaker quarantine so one
// poisoned shard cannot churn the pool forever.  Because shard workers
// checkpoint independently, each retry resumes from the dead worker's last
// snapshot through the *certifiable* warm-start gate (seeds re-validate and
// emit F proof steps), so no progress and no certifiability is lost.
//
// Exactness: band bounds only restrict *where* each portfolio searches;
// the union of bands is the whole objective line, every band's front is
// exact within its band modulo points dominated from other bands, and the
// non-dominated filter of the union equals the single-process front
// point-for-point (enforced by tests/test_distributed.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cert/certify.hpp"
#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "dse/supervise.hpp"
#include "dse/warmstart.hpp"
#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"

namespace aspmt::dse {

/// One contiguous band of the shard objective.  INT64_MIN / INT64_MAX mark
/// unbounded ends; a single-shard split is one fully unbounded band.
struct Shard {
  std::size_t id = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

/// Split objective `objective` into at most `shards` contiguous bands at the
/// quantiles of a `sample_budget`-evaluation heuristic sample (the sampler
/// warm pass, so every probe is a validated feasible point).  The returned
/// bands always tile (-inf, +inf): the first is open below, the last open
/// above, consecutive bands meet at hi+1.  Degenerate samples (fewer
/// distinct values than bands) yield fewer shards, down to one unbounded
/// shard when the sample collapses entirely.
///
/// When `seeds_out` is non-null it receives the validated sample points.
/// The coordinator forwards them to *every* shard as warm-start seeds (as
/// an `aspmt-ckpt` file the worker reads with checkpoint_seeds): a feasible point outside a shard's band still
/// dominates (and thereby prunes) candidates inside it, and without that
/// cross-band knowledge each shard would redo the global dominance work
/// banding was meant to split — on one core the distributed run would be
/// strictly slower than the portfolio.  Seeds re-enter through the
/// certifiable warm gate (validate + F proof step), so sharing them never
/// weakens the merged certificate.
[[nodiscard]] std::vector<Shard> shard_objective_space(
    const synth::Specification& spec, std::size_t shards,
    std::size_t objective, std::uint64_t sample_budget = 256,
    std::uint64_t seed = 1, std::vector<WarmSeedCandidate>* seeds_out = nullptr,
    WarmStartMethod method = WarmStartMethod::Sampler);

struct DistributedOptions {
  /// Per-shard portfolio configuration: `base.threads` is the thread count
  /// *inside each worker*, `base.common` carries limits/certify/obs exactly
  /// as for a single-process run.  The coordinator keeps the sink/metrics
  /// endpoints to itself (shard events are reported coordinator-side);
  /// band bounds are installed per shard.
  ParallelExploreOptions base;
  /// Concurrent worker processes.
  std::size_t processes = 2;
  /// Shard count; 0 = one shard per process.  More shards than processes
  /// gives the coordinator a work queue to rebalance onto survivors.
  std::size_t shards = 0;
  /// Index of the banded objective; it must pass shard_axis_error
  /// (energy = 1 or cost = 2 in the standard encoding).
  std::size_t shard_objective = 1;
  /// Worker binary.  "" = $ASPMT_DSE_BIN, then
  /// /proc/self/exe (correct when the coordinator is aspmt_dse itself).
  std::string worker_path;
  /// Scratch directory for the spec file and per-shard checkpoints; "" = a
  /// fresh mkdtemp directory, removed on success.
  std::string work_dir;
  /// A worker silent for longer than this is declared dead and requeued.
  double heartbeat_timeout_seconds = 10.0;
  /// Heuristic evaluations behind shard_objective_space.  The default is
  /// deliberately generous: the same pass produces the shared seed pool, and
  /// seed density is what keeps per-shard re-enumeration (and with it the
  /// distributed run's total work) low.
  std::uint64_t split_sample_budget = 2048;
  /// Heuristic behind the split pass.  NSGA-II concentrates its budget near
  /// the front, so the quantiles land where front mass actually sits and
  /// the seed antichain is dense; the uniform sampler is the cheaper,
  /// lower-quality fallback.
  WarmStartMethod split_method = WarmStartMethod::Nsga2;
  /// Fault-injection hook: this shard's first attempt is launched with
  /// --die-after-points, so its worker kills itself after streaming
  /// `sabotage_after_points` points.  -1 = off.
  std::int64_t sabotage_shard = -1;
  std::uint64_t sabotage_after_points = 1;
  /// Requeue supervision: a failed shard is relaunched after a capped,
  /// jittered exponential backoff until `retry.max_attempts` total
  /// launches, then quarantined with its failure recorded.
  RetryPolicy retry;
};

/// Per-shard accounting for the CLI report, the bench and the tests.
struct ShardReport {
  std::size_t shard = 0;
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::size_t attempts = 0;   ///< launches (> 1 after a requeue)
  bool resumed = false;       ///< a retry warm-started from a checkpoint
  bool completed = false;     ///< band proven exhausted
  double seconds = 0.0;       ///< wall time of the delivering attempt
  std::uint64_t models = 0;   ///< accepted answer sets in the delivering attempt
  std::uint64_t points = 0;   ///< discoveries delivered
  std::string error;          ///< why the shard failed, when it did
};

struct DistributedResult {
  /// The merged run in dse::explore's shape: union front (with
  /// witnesses), merged-container proof, certification outcome, aggregated
  /// stats.  `base.stats.complete` iff every shard proved its band
  /// exhausted.
  ExploreResult base;
  std::vector<ShardReport> shards;
  std::size_t processes = 0;  ///< concurrent lanes actually used
  /// Certified mode: the full merged-certification outcome (per-shard proof
  /// checks, coverage, front equality).  `base.certified` mirrors
  /// `merged.certified`.
  cert::CertifyResult merged;
};

/// Explore `spec` distributed over `options.processes` workers.  Throws
/// std::invalid_argument, before any worker starts, when the specification
/// is invalid or shard_axis_error rejects the shard objective.
[[nodiscard]] DistributedResult explore_distributed(
    const synth::Specification& spec, const DistributedOptions& options = {});

// ---- shard-worker wire format ----------------------------------------------
//
// Worker stdout, line-framed until the result:
//   ASPMT-SHARD 1              handshake
//   HB <elapsed_ms>            heartbeat (also implied by any other line)
//   PT <l> <e> <c>             a point entered the worker's archive
//   RESULT <nbytes>            terminal; exactly nbytes of payload follow
// The payload is shard_result_to_text below; the worker exits 0 after it.

/// Serialize a finished shard run into the RESULT payload: completion flag,
/// models, wall seconds, every discovery with its witness (checkpoint `w`
/// encoding, dse/checkpoint.hpp), the shard front, and the raw proof stream.
[[nodiscard]] std::string shard_result_to_text(const ParallelExploreResult& r);

/// Coordinator-side decode of shard_result_to_text.
struct ShardResultPayload {
  bool complete = false;
  std::uint64_t models = 0;
  double seconds = 0.0;
  std::vector<std::pair<pareto::Vec, synth::Implementation>> discoveries;
  std::vector<pareto::Vec> front;
  std::string proof;
};

/// Parse a RESULT payload.  Returns "" on success, a diagnostic otherwise.
[[nodiscard]] std::string parse_shard_result(std::string_view text,
                                             ShardResultPayload& out);

}  // namespace aspmt::dse
