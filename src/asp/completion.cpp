#include "asp/completion.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace aspmt::asp {
namespace {

/// Throw unless the positive dependency graph (an edge from each rule head
/// to each positive body atom) is acyclic.  Kahn's algorithm: an atom is
/// ordered once every rule head that depends on it is; on a cycle, and
/// below one, that never happens.  A self-loop is a cycle.
void require_tight(const Program& program) {
  const std::uint32_t n = program.num_atoms();
  std::vector<std::vector<Atom>> succ(n);
  std::vector<std::uint32_t> in_degree(n, 0);
  for (const Rule& r : program.rules()) {
    for (const BodyLit& bl : r.body) {
      if (!bl.positive) continue;
      succ[r.head].push_back(bl.atom);
      ++in_degree[bl.atom];
    }
  }
  std::vector<Atom> ready;
  for (Atom a = 0; a < n; ++a) {
    if (in_degree[a] == 0) ready.push_back(a);
  }
  std::uint32_t ordered = 0;
  while (!ready.empty()) {
    const Atom a = ready.back();
    ready.pop_back();
    ++ordered;
    for (const Atom b : succ[a]) {
      if (--in_degree[b] == 0) ready.push_back(b);
    }
  }
  if (ordered != n) {
    throw std::invalid_argument(
        "program is not tight: " + std::to_string(n - ordered) + " of " +
        std::to_string(n) +
        " atoms are on, or reachable from, a positive dependency cycle");
  }
}

}  // namespace

CompiledProgram compile(const Program& program, Solver& solver) {
  require_tight(program);
  CompiledProgram out;
  const std::uint32_t n = program.num_atoms();
  out.atom_var.resize(n);
  for (Atom a = 0; a < n; ++a) out.atom_var[a] = solver.new_var();

  // A constant-true literal used for empty bodies.
  const Var true_var = solver.new_var();
  const Lit true_lit = Lit::make(true_var, true);
  solver.add_clause({true_lit});

  // Normalize a body into a solver-literal conjunction, returning its
  // defining literal (auxiliaries are shared across identical bodies).
  std::map<std::vector<Lit>, Lit> body_cache;
  auto body_literal = [&](const std::vector<BodyLit>& body) -> Lit {
    std::vector<Lit> lits;
    lits.reserve(body.size());
    for (const BodyLit& bl : body) lits.push_back(out.lit(bl));
    std::sort(lits.begin(), lits.end());
    lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
    for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
      if (lits[i + 1] == ~lits[i]) return ~true_lit;  // contradictory body
    }
    if (lits.empty()) return true_lit;
    if (lits.size() == 1) return lits[0];
    if (const auto it = body_cache.find(lits); it != body_cache.end()) {
      return it->second;
    }
    const Lit aux = Lit::make(solver.new_var(), true);
    std::vector<Lit> reverse{aux};
    for (const Lit l : lits) {
      solver.add_clause({~aux, l});
      reverse.push_back(~l);
    }
    solver.add_clause(std::move(reverse));
    body_cache.emplace(std::move(lits), aux);
    return aux;
  };

  std::vector<std::vector<Lit>> supports(n);
  for (const Rule& r : program.rules()) {
    const Lit body = body_literal(r.body);
    supports[r.head].push_back(body);
    if (!r.choice) solver.add_clause({~body, out.lit(r.head)});
  }

  for (Atom a = 0; a < n; ++a) {
    auto& sup = supports[a];
    std::sort(sup.begin(), sup.end());
    sup.erase(std::unique(sup.begin(), sup.end()), sup.end());
    std::vector<Lit> clause{~out.lit(a)};
    clause.insert(clause.end(), sup.begin(), sup.end());
    solver.add_clause(std::move(clause));
  }

  for (const auto& body : program.constraints()) {
    const Lit b = body_literal(body);
    solver.add_clause({~b});
  }

  return out;
}

}  // namespace aspmt::asp
