// Front certification: combine witness validation with proof checking so a
// whole exploration result becomes independently verified.
//
// An exploration run is certified exact when
//   1. every point it ever discovered carries a witness implementation that
//      synth::Validator accepts, with objectives matching the recorded
//      vector (so each F step of the proof denotes a real design point);
//   2. the proof stream checks out end to end (cert::check_proof) with only
//      those validated points admitted as dominance sources, and contains a
//      verified assumption-free Unsat conclusion — no model escapes the
//      dominance-blocked regions, i.e. everything feasible is weakly
//      dominated by a validated point;
//   3. the reported front equals the Pareto-minimal subset of the validated
//      discoveries.
// Together these imply the reported front is exactly the Pareto front of
// the declared constraint system, trusting only the encoding declarations
// (which the validator cross-checks on the model side).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cert/checker.hpp"
#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"

namespace aspmt::cert {

struct CertifyResult {
  bool certified = false;
  std::size_t witnesses_validated = 0;
  CheckResult check;
  /// Empty when certified; first failing condition otherwise.
  std::string error;
};

/// Certify one exploration run.  `discoveries` must pair every objective
/// vector the run ever inserted into its archive with the witness
/// implementation captured for it; `front` is the reported final front.
[[nodiscard]] CertifyResult certify_front(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::string_view proof);

// ---------------------------------------------------------------------------
// Merged certification for distributed (sharded) runs — dse/distributed.hpp.
//
// A distributed run splits one objective's range into K disjoint bands
// ("boxes"), explores each band with an independent portfolio under
// activation-guarded band bounds, and merges the per-band fronts.  Each band
// hands up a raw `p aspmt 1` stream whose terminating Unsat is concluded
// under exactly its band activations.  certify_merged turns the collection
// into one verified exactness claim through four checks:
//
//   1. witness validation — the union of all shards' discoveries validates,
//      and only those points are admitted as dominance sources anywhere;
//   2. per-shard proof check with shard-box extraction
//      (CheckOptions::shard_objective): the checker-verified box of each
//      stream must contain the claimed band, the stream must be untruncated
//      and carry no unconditional bound (CheckResult::unsafe_bounds), and
//      every stream's declaration core (the I/S/N/E/O lines — the
//      constraint system itself) must be byte-identical to shard 0's, so all
//      shards provably solved the same problem;
//   3. coverage — the claimed bands, sorted, tile (-inf, +inf) exactly: the
//      first is open below, none is empty, each next band starts one past
//      its predecessor's end, the last is open above.  No gap escapes every
//      shard's Unsat;
//   4. the merged front equals the Pareto-minimal subset of the validated
//      union.
//
// Steps 2 and 3 are check_shards, which `aspmt_check` runs on a merged
// container with its trusting options (F steps taken at face value).
//
// Soundness of the cross-shard argument: a feasible point inside a band
// extends to a model of the declared system with that band's activations
// true and every other auxiliary variable false (box purity, verified by the
// checker), so the band's verified Unsat means every feasible point in the
// band is weakly dominated by some validated point — possibly one discovered
// by a *different* shard, which is why the feasible set is the union.
// ---------------------------------------------------------------------------

/// One shard of a distributed run: the claimed closed band [lo, hi] on the
/// shard objective (INT64_MIN/INT64_MAX = unbounded end) and the raw
/// `p aspmt 1` stream its portfolio produced under the band activations.
struct ShardProof {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::string proof;
};

/// Outcome of check_shards: steps 2 and 3 of certify_merged.
struct ShardsCheck {
  /// Per-shard check outcomes, in input order, up to the first failure.
  std::vector<CheckResult> checks;
  /// Shards whose stream met every per-shard condition of step 2.
  std::size_t shards_checked = 0;
  /// Empty when every shard checks out and the bands tile the objective
  /// line; the first failing condition otherwise.
  std::string error;
};

/// Check every shard's stream under `options`, with shard boxes extracted
/// on `shard_objective` (step 2), then the claimed bands' tiling (step 3).
[[nodiscard]] ShardsCheck check_shards(std::span<const ShardProof> shards,
                                       std::size_t shard_objective,
                                       CheckOptions options);

struct MergedCertifyResult {
  bool certified = false;
  std::size_t witnesses_validated = 0;
  std::size_t shards_checked = 0;
  /// Per-shard check outcomes, in input order, up to the first failure.
  std::vector<CheckResult> checks;
  /// Empty when certified; first failing condition otherwise.
  std::string error;
};

/// Certify a distributed run.  `discoveries` is the union of every shard's
/// discoveries (each with its witness), `front` the merged front,
/// `shard_objective` the banded objective's index in the spec's objective
/// order.
[[nodiscard]] MergedCertifyResult certify_merged(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::span<const ShardProof> shards,
    std::size_t shard_objective);

/// First line of the merged-proof container format.
inline constexpr std::string_view kMergedProofHeader = "p aspmt-merged 1";

/// Serialize shard proofs into the self-contained `p aspmt-merged 1`
/// container:
///   p aspmt-merged 1
///   objective <k>
///   shard <lo> <hi> <nbytes>
///   <nbytes raw proof bytes>
///   ... (one shard block per shard)
/// `aspmt_check` accepts this container next to plain `p aspmt 1` streams.
[[nodiscard]] std::string merged_proof_to_text(std::size_t objective,
                                               std::span<const ShardProof> shards);

/// Parse merged_proof_to_text output.  Returns "" on success, a diagnostic
/// otherwise.
[[nodiscard]] std::string parse_merged_proof(std::string_view text,
                                             std::size_t& objective,
                                             std::vector<ShardProof>& shards);

}  // namespace aspmt::cert
