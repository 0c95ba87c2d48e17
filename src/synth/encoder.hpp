// The ASPmT encoding of system synthesis.
//
// Combinatorial part (answer set program + cardinality clauses):
//   * binding    — choice atoms bind(t,o), exactly one option per task;
//   * routing    — a hop-indexed walk per message: head(m,h,r) positions,
//                  step(m,h,l) choice atoms move the head along links until
//                  it reaches the destination task's resource; walks are
//                  simple (no resource revisited) and hop-bounded;
//   * allocation — alloc(r) derived from bindings and traversed positions;
//   * serialization — for each task pair that can share a resource, choice
//                  atoms prec(t1,t2)/prec(t2,t1); exactly one is true when
//                  they do share a resource.
//
// Theory part:
//   * cost   = Σ cost(r)·alloc(r)                    (guarded linear sum)
//   * energy = Σ e(t,o)·bind(t,o) + Σ e(l)·step(m,h,l)
//   * latency: difference-logic nodes start(t), msgpos(m,h), makespan with
//     guarded edges for execution, store-and-forward hops and serialization;
//     the makespan lower bound is the latency objective.
//
// The routing reachability analysis prunes head/step atoms that cannot lie
// on any source-to-destination walk within the hop bound.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "asp/completion.hpp"
#include "asp/program.hpp"
#include "asp/solver.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"
#include "theory/difference.hpp"
#include "theory/linear_sum.hpp"

namespace aspmt::synth {

struct Encoding {
  static constexpr asp::Atom kNoAtom = 0xffffffffU;
  static constexpr theory::DifferencePropagator::NodeId kNoNode = 0xffffffffU;

  asp::Program program;
  asp::CompiledProgram compiled;
  std::uint32_t hops = 0;

  /// bind_atom[t][i] for the i-th entry of spec.mappings_of(t).
  std::vector<std::vector<asp::Atom>> bind_atom;
  /// head_atom[m][h][r]; kNoAtom when unreachable.
  std::vector<std::vector<std::vector<asp::Atom>>> head_atom;
  /// step_atom[m][h][l] for h in 1..hops; kNoAtom when impossible.
  std::vector<std::vector<std::vector<asp::Atom>>> step_atom;
  /// arrived_atom[m][h] / arrived_acc_atom[m][h]; kNoAtom when impossible.
  std::vector<std::vector<asp::Atom>> arrived_atom;
  std::vector<std::vector<asp::Atom>> arrived_acc_atom;
  std::vector<asp::Atom> alloc_atom;

  struct PrecPair {
    TaskId t1 = 0;
    TaskId t2 = 0;
    asp::Atom t1_first = kNoAtom;
    asp::Atom t2_first = kNoAtom;
  };
  std::vector<PrecPair> prec_pairs;

  theory::LinearSumPropagator::SumId cost_sum = 0;
  theory::LinearSumPropagator::SumId energy_sum = 0;
  /// Redundant floor on the energy objective: task terms plus the minimal
  /// communication energy implied by each message's bound endpoints
  /// (copair atoms), valid before any routing is decided.  Never exceeds
  /// energy_sum in a total model.  nullopt when there is no copair term
  /// (floors off, or no endpoint pair whose cheapest path costs energy).
  std::optional<theory::LinearSumPropagator::SumId> energy_floor_sum;
  theory::DifferencePropagator::NodeId makespan = 0;
  std::vector<theory::DifferencePropagator::NodeId> start_node;  // per task
  std::vector<std::vector<theory::DifferencePropagator::NodeId>> msgpos_node;

  /// Positive literals of all guessed atoms (bind, step, prec) — the model
  /// projection used for enumeration blocking clauses.
  std::vector<asp::Lit> decision_lits;

  [[nodiscard]] asp::Lit lit(asp::Atom a) const { return compiled.lit(a); }
};

struct EncodeOptions {
  /// Emit the binding-pair floors (copair energy terms, minimal-delay DL
  /// edges).  Disabling them is an ablation — results never change,
  /// partial-assignment bounds just get much weaker.
  bool objective_floors = true;
};

/// Build the full encoding into `solver` and the two theory propagators.
/// The propagators must be registered with the solver by the caller (in
/// order: linear, difference, then any DSE propagators).  Throws std::invalid_argument when spec.validate() is not
/// empty.
[[nodiscard]] Encoding encode(const Specification& spec, asp::Solver& solver,
                              theory::LinearSumPropagator& linear,
                              theory::DifferencePropagator& dl,
                              const EncodeOptions& options = {});

/// Decode the solver's current *total* assignment (valid inside a
/// total-check callback, while the theory propagators are at fixpoint).
[[nodiscard]] Implementation decode_current(const Specification& spec,
                                            const Encoding& enc,
                                            const asp::Solver& solver,
                                            const theory::LinearSumPropagator& linear,
                                            const theory::DifferencePropagator& dl);

}  // namespace aspmt::synth
