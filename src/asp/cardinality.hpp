// Cardinality constraints over solver literals (Sinz sequential counter).
//
// The synthesis encoder uses these for "exactly one binding per task" and
// hop-uniqueness constraints after the program has been compiled; they are
// plain clauses, so they interact with learning like any completion
// clause.
#pragma once

#include <span>
#include <vector>

#include "asp/literal.hpp"
#include "asp/solver.hpp"

namespace aspmt::asp {

/// at most `k` of `lits` are true.  k >= 0; k >= lits.size() is a no-op.
void encode_at_most(Solver& solver, std::span<const Lit> lits, std::uint32_t k);

/// at least `k` of `lits` are true.  k == 0 is a no-op; k > lits.size()
/// makes the solver unsatisfiable.
void encode_at_least(Solver& solver, std::span<const Lit> lits, std::uint32_t k);

/// exactly one of `lits` is true (pairwise for small n, sequential above).
void encode_exactly_one(Solver& solver, std::span<const Lit> lits);

/// at most one of `lits` is true.
void encode_at_most_one(Solver& solver, std::span<const Lit> lits);

}  // namespace aspmt::asp
