// Shared helpers for the test suite: model enumeration over selected
// variables, CNF brute force, and a brute-force stable-model reference
// implementation used as the oracle for the ASP pipeline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <vector>

#include "asp/completion.hpp"
#include "asp/program.hpp"
#include "asp/solver.hpp"

namespace aspmt::test {

/// Seed for parameterized fuzz/stress suites.  ASPMT_TEST_SEED=<N> shifts
/// every seed by N, so nightly runs can sweep fresh regions of the input
/// space without a rebuild; failure messages print the *effective* seed —
/// reproduce a shifted failure with ASPMT_TEST_SEED=<printed - param>.
inline std::uint64_t fuzz_seed(std::uint64_t param) {
  static const std::uint64_t offset = [] {
    const char* env = std::getenv("ASPMT_TEST_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : 0ULL;
  }();
  return param + offset;
}

/// Enumerate all models of `solver`, projected onto `vars`, by adding
/// blocking clauses.  Destructive (the solver ends up unsatisfiable).
inline std::set<std::vector<bool>> enumerate_projected(
    asp::Solver& solver, const std::vector<asp::Var>& vars,
    std::size_t limit = 1 << 20) {
  std::set<std::vector<bool>> models;
  while (models.size() < limit) {
    if (solver.solve() != asp::Solver::Result::Sat) break;
    std::vector<bool> projection;
    std::vector<asp::Lit> blocking;
    projection.reserve(vars.size());
    for (const asp::Var v : vars) {
      const bool val = solver.model_value(v);
      projection.push_back(val);
      blocking.push_back(asp::Lit::make(v, !val));
    }
    models.insert(std::move(projection));
    if (!solver.add_clause(std::move(blocking))) break;
  }
  return models;
}

/// Brute-force SAT check of a CNF over `num_vars` variables (<= 24).
inline bool brute_force_sat(const std::vector<std::vector<asp::Lit>>& cnf,
                            std::uint32_t num_vars) {
  for (std::uint64_t mask = 0; mask < (1ULL << num_vars); ++mask) {
    bool all = true;
    for (const auto& clause : cnf) {
      bool sat = false;
      for (const asp::Lit l : clause) {
        const bool v = ((mask >> l.var()) & 1ULL) != 0;
        if (v == l.positive()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

/// Count models of a CNF by brute force.
inline std::uint64_t brute_force_count(
    const std::vector<std::vector<asp::Lit>>& cnf, std::uint32_t num_vars) {
  std::uint64_t count = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << num_vars); ++mask) {
    bool all = true;
    for (const auto& clause : cnf) {
      bool sat = false;
      for (const asp::Lit l : clause) {
        const bool v = ((mask >> l.var()) & 1ULL) != 0;
        if (v == l.positive()) {
          sat = true;
          break;
        }
      }
      if (!sat) {
        all = false;
        break;
      }
    }
    if (all) ++count;
  }
  return count;
}

/// Brute-force stable models of a ground program (num_atoms <= 20).
///
/// Semantics of choice rules `{h} :- B` follows the standard translation
/// h :- B, not h'  /  h' :- not h  with a fresh h' per choice rule; the
/// check below inlines that translation: a candidate S is stable iff S
/// equals the least model of the reduct, where a choice rule contributes
/// h :- B⁺ to the reduct iff its negative body holds and h ∈ S.
inline std::set<std::vector<bool>> brute_force_stable_models(
    const asp::Program& program) {
  const std::uint32_t n = program.num_atoms();
  std::set<std::vector<bool>> result;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    const auto in_s = [&](asp::Atom a) { return ((mask >> a) & 1ULL) != 0; };

    // Integrity constraints must not fire.
    bool violated = false;
    for (const auto& body : program.constraints()) {
      bool fires = true;
      for (const asp::BodyLit& bl : body) {
        if (in_s(bl.atom) != bl.positive) {
          fires = false;
          break;
        }
      }
      if (fires) {
        violated = true;
        break;
      }
    }
    if (violated) continue;

    // Least model of the reduct.
    std::vector<bool> derived(n, false);
    bool changed = true;
    while (changed) {
      changed = false;
      for (const asp::Rule& r : program.rules()) {
        if (derived[r.head]) continue;
        if (r.choice && !in_s(r.head)) continue;  // head not chosen
        bool applicable = true;
        for (const asp::BodyLit& bl : r.body) {
          if (bl.positive) {
            if (!derived[bl.atom]) {
              applicable = false;
              break;
            }
          } else if (in_s(bl.atom)) {  // reduct removes rules with sat. "not"
            applicable = false;
            break;
          }
        }
        if (applicable) {
          derived[r.head] = true;
          changed = true;
        }
      }
    }

    std::vector<bool> candidate(n);
    bool equal = true;
    for (asp::Atom a = 0; a < n; ++a) {
      candidate[a] = in_s(a);
      if (derived[a] != candidate[a]) equal = false;
    }
    if (equal) result.insert(std::move(candidate));
  }
  return result;
}

/// Solve a tight program through the production pipeline (completion +
/// CDNL) and enumerate all answer sets projected onto the program's atoms.
std::set<std::vector<bool>> solver_stable_models(const asp::Program& program);

}  // namespace aspmt::test
