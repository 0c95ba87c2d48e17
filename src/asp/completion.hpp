// Clark completion — translating a tight ground program into solver clauses.
//
// Each atom gets one solver variable; each non-trivial rule body gets a
// shared auxiliary variable defined by equivalence clauses.  Support clauses
// enforce `atom -> some body`, derivation clauses enforce `body -> atom` for
// non-choice rules.  On a tight program (no cycle in the positive
// dependency graph) the models of the completion are exactly the stable
// models, so no unfounded-set check is needed; compile() refuses any other
// program.
#pragma once

#include <vector>

#include "asp/program.hpp"
#include "asp/solver.hpp"

namespace aspmt::asp {

/// Result of compiling a Program into a Solver.
struct CompiledProgram {
  /// Solver variable of each atom (indexed by Atom).
  std::vector<Var> atom_var;

  [[nodiscard]] Lit lit(Atom a, bool positive = true) const {
    return Lit::make(atom_var[a], positive);
  }

  [[nodiscard]] Lit lit(const BodyLit& bl) const {
    return Lit::make(atom_var[bl.atom], bl.positive);
  }
};

/// Translate `program` into clauses of `solver`.  Allocates one variable per
/// atom (in atom order) plus shared auxiliaries for rule bodies.  Returns the
/// compiled image; `solver.ok()` is false afterwards iff the completion is
/// unsatisfiable at the root.  Throws std::invalid_argument, before it
/// allocates any variable, when the program is not tight: when some rule
/// head depends positively on itself, directly or through other rules.
[[nodiscard]] CompiledProgram compile(const Program& program, Solver& solver);

}  // namespace aspmt::asp
