// SynthContext bundles one fully wired ASPmT instance: solver, theory
// propagators, encoding, objectives, archive and model capture.  Explorer,
// optimiser and the baselines all operate on this bundle.
#pragma once

#include <memory>
#include <string>

#include "asp/solver.hpp"
#include "dse/dominance.hpp"
#include "dse/objective_manager.hpp"
#include "pareto/archive.hpp"
#include "synth/encoder.hpp"
#include "synth/spec.hpp"
#include "theory/difference.hpp"
#include "theory/linear_sum.hpp"

namespace aspmt::dse {

struct ContextOptions {
  std::string archive_kind = "quadtree";
  bool partial_evaluation = true;
  /// Binding-pair floor bounds in the encoding (ablation switch).  Ignored
  /// when `proof` is set.
  bool objective_floors = true;
  /// When set, the whole session is proof-logged: the solver emits its
  /// inference trace and every theory propagator mirrors its declarations
  /// and lemma justifications.  The pointee must outlive the context.  A
  /// proof-logged context builds no floors: the checker cannot re-derive a
  /// floor's copair sum, so every explanation must cite a declared sum.
  asp::ProofLog* proof = nullptr;
  asp::SolverOptions solver_options{};
};

class SynthContext;

/// Runs as the last theory check on every accepted total assignment and
/// snapshots the exact objective vector plus the decoded implementation
/// while the theory propagators are still at the model's fixpoint.
class ModelCapture final : public asp::TheoryPropagator {
 public:
  explicit ModelCapture(SynthContext& ctx) : ctx_(ctx) {}

  bool propagate(asp::Solver&) override { return true; }
  void undo_to(const asp::Solver&, std::size_t) override {}
  bool check(asp::Solver& solver) override;

  [[nodiscard]] const pareto::Vec& vector() const noexcept { return vector_; }
  [[nodiscard]] const synth::Implementation& implementation() const noexcept {
    return impl_;
  }

 private:
  SynthContext& ctx_;
  pareto::Vec vector_;
  synth::Implementation impl_;
};

class SynthContext {
 public:
  /// `spec` must outlive the context and satisfy spec.validate().empty().
  explicit SynthContext(const synth::Specification& spec, ContextOptions options = {});

  SynthContext(const SynthContext&) = delete;
  SynthContext& operator=(const SynthContext&) = delete;

  [[nodiscard]] const synth::Specification& spec() const noexcept { return *spec_; }

  asp::Solver solver;
  theory::LinearSumPropagator linear;
  theory::DifferencePropagator difference;
  synth::Encoding encoding;
  ObjectiveManager objectives;  ///< one ObjectiveTerm tree per Pareto axis, in
                                ///< spec order (latency, energy, cost default)

  [[nodiscard]] pareto::Archive& archive() noexcept { return *archive_; }
  [[nodiscard]] DominancePropagator& dominance() noexcept { return *dominance_; }
  [[nodiscard]] ModelCapture& capture() noexcept { return *capture_; }

  /// Forbid the last model's implementation: add the clause over the
  /// encoding's decision atoms that excludes their current model values.
  /// False when that leaves the problem unsatisfiable.
  bool block_model();

 private:
  const synth::Specification* spec_;
  std::unique_ptr<pareto::Archive> archive_;
  std::unique_ptr<DominancePropagator> dominance_;
  std::unique_ptr<ModelCapture> capture_;
};

}  // namespace aspmt::dse
