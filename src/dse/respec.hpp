// Structural spec diffing + incremental re-exploration (DESIGN.md §13).
//
// Real DSE is a loop: a designer tweaks one WCET, adds a task or swaps a
// resource and re-runs.  This layer generalizes the checkpoint's combined
// spec fingerprint into four per-section digests (tasks, resources,
// mappings, objective coefficients), classifies the delta between a
// previous session's checkpoint and the edited specification, and reuses
// everything reuse-safe:
//
//   * the Pareto archive — witnesses still valid for the *new* spec are
//     taken as they are, the others re-decoded against it, and all are
//     pushed through the warm-start validate→antichain-reduce→inject gate
//     (re-validate, never trust);
//   * learnt clauses — replayed behind a fresh assumption guard
//     (asp::Solver::add_guarded_clauses), so a stale or hostile dump can
//     prune nothing from the final answer.
//
// Nothing else carries over.  The portfolio's SliceScheduler cuts its
// epsilon slices from the first front snapshot that spans a range, as in a
// cold run; for a restart that snapshot is the reused front.
//
// The exactness bar is unconditional: an incremental run returns the same
// front a cold run would, certified, at any thread count — reuse only ever
// changes how fast the search gets there.
//
// reuse_checkpoint is the repository's one restart step, not just the spec
// edit's: CLI --resume and --reexplore-from, dse::Session retries and (its
// checkpoint_seeds half) the distributed shard worker all put saved points
// back into an archive through it, so every restart is exact by the same
// argument and certifiable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dse/parallel_explorer.hpp"
#include "dse/warmstart.hpp"
#include "synth/spec.hpp"

namespace aspmt::dse {

struct Checkpoint;

/// Per-section FNV-1a digests of a specification.  Two specs with equal
/// digests in a section are structurally identical there; the combined
/// checkpoint fingerprint remains the whole-text hash, which is all a v1/v2
/// checkpoint can be classified by.
struct SectionDigests {
  std::uint64_t tasks = 0;       ///< task names + message topology
  std::uint64_t resources = 0;   ///< resources, kinds, capacities, links, hops
  std::uint64_t mappings = 0;    ///< task→resource option structure
  std::uint64_t objectives = 0;  ///< every numeric coefficient + bounds
  std::uint64_t tree = 0;        ///< scenarios + combinator axis expressions

  friend bool operator==(const SectionDigests&, const SectionDigests&) = default;
};

[[nodiscard]] SectionDigests spec_sections(const synth::Specification& spec);

/// The `tree` digest of a spec with no scenario/objective declarations (the
/// classic latency/energy/cost axes).  Pre-v5 checkpoints carry no tree
/// digest and load with this value; the checkpoint parser only enforces the
/// witness-objectives-equal-point invariant under it, because with declared
/// combinator axes the point is tree-valued while the witness records the
/// base triple.
[[nodiscard]] std::uint64_t default_tree_digest() noexcept;

/// How much of a previous session survives the spec edit.
enum class DeltaClass : std::uint8_t {
  Identical,    ///< everything reuses: archive and clauses
  ClauseSafe,   ///< only coefficients changed: variable layout is intact,
                ///< so archive + guarded clause replay both reuse
  ArchiveSafe,  ///< structure changed but tasks survive: witnesses re-decode
                ///< against the new spec; the clause dump is meaningless
  Unsafe,       ///< tasks changed (or v1/v2 checkpoint + different spec):
                ///< cold start
};

[[nodiscard]] const char* delta_class_name(DeltaClass c) noexcept;

struct DeltaReport {
  DeltaClass cls = DeltaClass::Unsafe;
  bool tasks_changed = false;
  bool resources_changed = false;
  bool mappings_changed = false;
  bool objectives_changed = false;
  bool tree_changed = false;
  /// Bitmask of the *_changed flags (tasks=1, resources=2, mappings=4,
  /// objectives=8, tree=16) — the payload of the respec-delta event.
  [[nodiscard]] std::uint32_t section_mask() const noexcept {
    return (tasks_changed ? 1U : 0U) | (resources_changed ? 2U : 0U) |
           (mappings_changed ? 4U : 0U) | (objectives_changed ? 8U : 0U) |
           (tree_changed ? 16U : 0U);
  }
};

/// Classify the structural delta between two digest sets.
[[nodiscard]] DeltaReport classify_delta(const SectionDigests& prev,
                                         const SectionDigests& next);

/// Classify a checkpoint against an edited spec.  v3 checkpoints carry
/// per-section digests and classify precisely; v1/v2 checkpoints only have
/// the combined fingerprint, so anything but an identical spec is Unsafe.
[[nodiscard]] DeltaReport classify_checkpoint(const Checkpoint& prev,
                                              const synth::Specification& next);

/// Decode a dump (ClauseReplay, options.hpp) into solver literals for
/// asp::Solver::add_guarded_clauses.
/// Returns empty when `base_vars` does not match the dump's base (the dump
/// came from a different encoding); clauses containing a zero or
/// out-of-range literal are dropped individually, never installed.
[[nodiscard]] std::vector<std::vector<asp::Lit>> decode_replay(
    const ClauseReplay& replay, std::uint32_t base_vars);

struct ReexploreOptions {
  /// Explorer configuration for the incremental run (a portfolio run; one
  /// thread is dse::explore's search), amended by reuse_checkpoint.
  ParallelExploreOptions base;
};

struct ReuseStats {
  DeltaReport delta;
  std::size_t archive_candidates = 0;  ///< checkpoint witnesses considered
  std::size_t archive_reused = 0;  ///< seeds checkpoint_seeds produced (the
                                   ///< warm gate re-validates each)
  std::size_t clause_candidates = 0;  ///< clauses offered by the checkpoint
  /// Validated clauses handed to the run for guarded install.  The explorer
  /// still drops the whole hand-off if its base_vars does not match the
  /// encoding; actually-installed counts are ExploreStats::replayed_clauses.
  std::size_t clauses_replayed = 0;
  bool cold_start = false;  ///< nothing was reusable
  /// Fraction of reuse candidates that actually got reused (0 when none
  /// were offered).
  [[nodiscard]] double reuse_rate() const noexcept {
    const std::size_t cand = archive_candidates + clause_candidates;
    if (cand == 0) return 0.0;
    return static_cast<double>(archive_reused + clauses_replayed) /
           static_cast<double>(cand);
  }
};

struct ReexploreResult {
  /// The incremental run's result — front, witnesses, certification.  Same
  /// exactness contract as a cold dse::explore / explore_parallel.
  ExploreResult base;
  ReuseStats reuse;
};

/// The one conversion from a checkpoint to warm-start seed candidates for
/// `spec`: nothing on an Unsafe delta; otherwise one candidate per
/// checkpoint witness that validates against `spec` as it is, or that
/// re-decodes to a feasible implementation of `spec` (global mapping
/// indices re-resolved; a vanished option falls back to the same binding
/// resource).  Every candidate's point is recomputed from its witness, and
/// the warm gate re-validates it anyway: nothing from the checkpoint is
/// trusted.  Points without a witness are not re-seeded.
[[nodiscard]] std::vector<WarmSeedCandidate> checkpoint_seeds(
    const Checkpoint& ckpt, const synth::Specification& spec);

/// The one restart step: classify `ckpt` against `spec` and amend `run` with
/// whatever the delta marks safe to reuse — checkpoint_seeds appended to
/// `run.common.warm_start.external`; for Identical/ClauseSafe deltas the
/// clause dump (invalid clauses dropped, at most 4096) as
/// `run.common.clause_replay`.  Emits the respec-delta/respec-reuse events
/// to `run.common.sink` and sets the `respec.*` metrics.  A default-constructed
/// checkpoint (what a failed load leaves) is an Unsafe delta: a cold start.
ReuseStats reuse_checkpoint(const Checkpoint& ckpt,
                            const synth::Specification& spec,
                            ParallelExploreOptions& run);

/// Re-explore an edited specification: reuse_checkpoint, then
/// explore_parallel.  `new_spec` must satisfy validate().empty() and
/// outlive the call.
[[nodiscard]] ReexploreResult reexplore(const Checkpoint& prev,
                                        const synth::Specification& new_spec,
                                        const ReexploreOptions& options = {});

}  // namespace aspmt::dse
