// Certification: combine witness validation with proof checking so a whole
// exploration result becomes independently verified.
//
// One routine certifies every run.  A run hands up *bands*: closed intervals
// [lo, hi] of one objective that tile (-inf, +inf), each with the raw
// `p aspmt 1` stream that proves it exhausted.  A single-process run is the
// one-band case: one unbounded band whose stream ends in a global Unsat.  A
// distributed run (dse/distributed.hpp) splits one linear objective into K
// bands, explores each in its own process under activation-guarded band
// bounds, and merges the per-band fronts.  cert::certify turns either into
// one verified exactness claim through four checks:
//
//   1. witness validation — every discovered point (the union over all
//      bands) carries a witness implementation that synth::Validator
//      accepts and that recomputes to the recorded vector; only those
//      points are admitted as dominance sources in any stream;
//   2. per-band proof check — every stream verifies end to end
//      (cert::check_proof, or the ProofChecker that read the stream while
//      the run wrote it — ShardProof::checked), is untruncated, declares
//      no bound under a negative activation (CheckResult::unsafe_bounds)
//      and covers its band: it concludes a verified global Unsat, or a
//      checker-verified shard box (CheckOptions::shard_objective) contains
//      the band.  With more than one band, every stream's declaration
//      core must be byte-identical to band 0's: the I/S/N/E/O lines and
//      the bound declarations (SB/SL/NB/OB) whose activation is 0, i.e.
//      the constraint system itself, so all bands provably solved one
//      problem;
//   3. coverage — the claimed bands, sorted, tile (-inf, +inf) exactly: the
//      first is open below, none is empty, each next band starts one past
//      its predecessor's end, the last is open above.  No gap escapes every
//      band's Unsat;
//   4. the reported front equals the Pareto-minimal subset of the validated
//      discoveries.
//
// Steps 2 and 3 are check_shards, which `aspmt_check` runs on a merged
// container with its trusting options (F steps taken at face value).
//
// Soundness of the cross-band argument: a feasible point inside a band
// extends to a model of the declared system with that band's activations
// true and every other auxiliary variable false (box purity, verified by the
// checker), so the band's verified Unsat means every feasible point in the
// band is weakly dominated by some validated point — possibly one discovered
// in a *different* band, which is why the feasible set is the union.  An
// unconditional bound (activation 0) is part of the declared system, like
// the spec's own deadline `NB <makespan> <latency_bound> 0`; a bound under a
// negative activation cannot be switched off by the extension and is
// rejected.  Together these imply the reported front is exactly the Pareto
// front of the declared constraint system, trusting only the encoding
// declarations (which the validator cross-checks on the model side).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
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

/// One band of a run: the claimed closed band [lo, hi] on the shard
/// objective (INT64_MIN/INT64_MAX = unbounded end) and the raw `p aspmt 1`
/// stream that proves it exhausted.  The defaults are the one unbounded
/// band of a single-process run.
struct ShardProof {
  std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  std::string proof;
  /// The check of `proof`, when it already ran while the run wrote the
  /// stream: under the options check_shards uses, with a subset of the
  /// validated discoveries admitted, and not failed for want of an admitted
  /// point (ProofChecker::failed_for_want_of_points).  Such a result equals
  /// the replay's field for field, so check_shards judges the band from it.
  /// Empty: check_shards replays `proof`.
  std::optional<CheckResult> checked = std::nullopt;
};

/// Outcome of check_shards: steps 2 and 3 of certify.
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
/// A band that carries its `checked` result is judged from it, unreplayed.
[[nodiscard]] ShardsCheck check_shards(std::span<const ShardProof> shards,
                                       std::size_t shard_objective,
                                       CheckOptions options);

/// The options certify checks a band's stream under, before any point is
/// admitted: only validated discoveries are dominance sources
/// (trust_feasible_steps off) and shard boxes are extracted on
/// `shard_objective`.  A ShardProof::checked result must come from these.
[[nodiscard]] CheckOptions band_check_options(std::size_t shard_objective);

struct CertifyResult {
  bool certified = false;
  std::size_t witnesses_validated = 0;
  std::size_t shards_checked = 0;
  /// Per-shard check outcomes, in input order, up to the first failure.
  std::vector<CheckResult> checks;
  /// Empty when certified; first failing condition otherwise.
  std::string error;
};

/// Certify a run.  `discoveries` pairs every objective vector the run ever
/// inserted into an archive, in any band, with its witness implementation;
/// `front` is the reported front; `shard_objective` the banded objective's
/// index in the spec's objective order (any index for the single unbounded
/// band of a one-process run).
[[nodiscard]] CertifyResult certify(
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
