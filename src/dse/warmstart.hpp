// dse::HybridPipeline — the heuristic half of the hybrid heuristic–exact
// explorer (ROADMAP item 4).
//
// Two mechanisms, both strictly accuracy-preserving:
//
//  1. Warm-start seeding: a budgeted heuristic pass (NSGA-II or a random
//     genotype sampler) proposes candidate design points.  Every candidate
//     is re-validated through synth::validate_implementation and its
//     objectives cross-checked against the decoded implementation before it
//     may enter the archive; survivors are injected as bounds that tighten
//     the dominance propagator from the very first conflict.  Because the
//     dominance nogood blocks `f >= p` *including equality*, a seeded point
//     is never re-enumerated by the solver — its validated witness stands
//     in as the front witness, and a matching `F` proof step is emitted at
//     injection time, so `cert::certify` certifies warm runs
//     end-to-end (see DESIGN §12 for the soundness argument).  Seeds that
//     turn out to be dominated are evicted by normal archive semantics.
//
//  2. Slice scheduling: the portfolio explorer carves objective 0 into
//     epsilon slices.  Instead of statically assigning slice i to worker i,
//     a SliceScheduler scores every slice by its remaining-hypervolume gap
//     (pareto::slice_hypervolume_gaps) against the incumbent front —
//     warm-start seeds and a restart's reused points make that front
//     available immediately — and workers claim the highest-gap slice next,
//     so search effort goes where the most unexplained volume is.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"

namespace aspmt::dse {

enum class WarmStartMethod : std::uint8_t {
  Off,      ///< no heuristic pass
  Nsga2,    ///< budgeted ea::nsga2 run
  Sampler,  ///< uniform random genotypes through ea::decode_genotype
};

/// A candidate seed: an objective vector plus the implementation claimed to
/// realise it.  Candidates are untrusted until `generate_warm_seeds` has
/// validated them.
struct WarmSeedCandidate {
  pareto::Vec point;
  synth::Implementation impl;
};

struct WarmStartOptions {
  WarmStartMethod method = WarmStartMethod::Off;
  /// Heuristic evaluation budget (genotype decodes).  For NSGA-II the
  /// population/generation split is derived from this.
  std::uint64_t budget = 400;
  std::uint64_t seed = 1;
  /// Extra candidates injected alongside the generated ones: a restarted
  /// checkpoint's points (reuse_checkpoint, respec.hpp), a distributed
  /// shard's seed pool, or test input.  They pass the same validation gate,
  /// so infeasible or mislabelled seeds cannot poison the archive.
  std::vector<WarmSeedCandidate> external;
};

[[nodiscard]] inline bool warm_start_enabled(const WarmStartOptions& o) {
  return o.method != WarmStartMethod::Off || !o.external.empty();
}

/// Parse "nsga2" / "sampler" / "off"; returns nullopt on anything else.
[[nodiscard]] std::optional<WarmStartMethod> parse_warm_start_method(
    const std::string& name);
[[nodiscard]] const char* warm_start_method_name(WarmStartMethod m);

struct WarmStartResult {
  /// Validated, mutually non-dominated seeds ready for archive injection.
  std::vector<WarmSeedCandidate> seeds;
  std::uint64_t candidates = 0;          ///< proposed (generated + external)
  std::uint64_t rejected_invalid = 0;    ///< failed the validation gate
  std::uint64_t rejected_dominated = 0;  ///< valid but dominated by another seed
  std::uint64_t heuristic_evaluations = 0;
  double seconds = 0.0;
};

/// Run the configured heuristic pass and validate every candidate.  The
/// returned seeds all satisfy
///   validate_implementation(spec, impl) == ""  &&  impl.objectives() == point
/// and form an antichain under weak dominance, sorted lexicographically by
/// point.
[[nodiscard]] WarmStartResult generate_warm_seeds(
    const synth::Specification& spec, const WarmStartOptions& options);

/// Thread-safe gap-guided slice dispenser for the portfolio explorer.
///
/// Built once from the first usable front snapshot; workers then `claim()`
/// pending slices in descending hypervolume-gap order.  A slice abandoned
/// by a dying worker is requeued exactly once (same one-shot policy the
/// static scheduler had), so a slice whose constraint itself triggers the
/// fault cannot wedge the portfolio in a requeue loop.
class SliceScheduler {
 public:
  struct Slice {
    std::size_t id = 0;
    std::int64_t bound = 0;  ///< objective-0 upper bound of the slice
    double gap = 0.0;        ///< remaining-hypervolume score at seeding time
  };

  /// Build the slice table from a front snapshot: `parts` epsilon splits on
  /// objective 0, scored by pareto::slice_hypervolume_gaps.  Only the first
  /// call with a front of >= 2 points takes effect; returns true when the
  /// table was (already) built.  This is the one way to build it.
  bool seed(const std::vector<pareto::Vec>& front, std::size_t parts);

  /// Claim the pending slice with the largest gap; nullopt when none left.
  std::optional<Slice> claim();

  /// Return a claimed slice after its worker died; it becomes claimable
  /// again exactly once.
  void abandon(std::size_t id);

  [[nodiscard]] bool seeded() const;
  [[nodiscard]] std::size_t pending() const;

 private:
  mutable std::mutex mutex_;
  bool seeded_ = false;
  std::vector<Slice> slices_;        // immutable after seeding
  std::vector<std::size_t> queue_;   // pending slice ids, best gap last
  std::vector<char> requeued_;       // one-shot abandon flag per slice
};

}  // namespace aspmt::dse
