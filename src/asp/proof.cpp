#include "asp/proof.hpp"

namespace aspmt::asp {

void ProofLog::append_int(std::int64_t v) {
  buf_ += ' ';
  buf_ += std::to_string(v);
}

void ProofLog::append_lit(Lit l) { append_int(proof_int(l)); }

void ProofLog::clause_step(char kind, std::span<const Lit> lits) {
  buf_ += kind;
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0\n";
}

void ProofLog::def_sum(std::uint32_t sum,
                       std::span<const std::pair<Lit, std::int64_t>> terms) {
  buf_ += 'S';
  append_int(sum);
  append_int(static_cast<std::int64_t>(terms.size()));
  for (const auto& [guard, weight] : terms) {
    append_lit(guard);
    append_int(weight);
  }
  buf_ += '\n';
}

void ProofLog::def_sum_bound(std::uint32_t sum, std::int64_t bound, Lit activation) {
  buf_ += "SB";
  append_int(sum);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  buf_ += '\n';
}

void ProofLog::def_sum_lower_bound(std::uint32_t sum, std::int64_t bound,
                                   Lit activation) {
  buf_ += "SL";
  append_int(sum);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  buf_ += '\n';
}

void ProofLog::def_node(std::uint32_t node) {
  buf_ += 'N';
  append_int(node);
  buf_ += '\n';
}

void ProofLog::def_edge(std::uint32_t edge, std::uint32_t from, std::uint32_t to,
                        std::int64_t weight, std::span<const Lit> guards) {
  buf_ += 'E';
  append_int(edge);
  append_int(from);
  append_int(to);
  append_int(weight);
  append_int(static_cast<std::int64_t>(guards.size()));
  for (const Lit g : guards) append_lit(g);
  buf_ += '\n';
}

void ProofLog::def_node_bound(std::uint32_t node, std::int64_t bound,
                              Lit activation) {
  buf_ += "NB";
  append_int(node);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  buf_ += '\n';
}

void ProofLog::def_objective_term(std::size_t objective,
                                  std::string_view tree_tokens) {
  buf_ += 'O';
  append_int(static_cast<std::int64_t>(objective));
  buf_ += ' ';
  buf_ += tree_tokens;
  buf_ += '\n';
}

void ProofLog::def_objective_bound(std::size_t objective, std::int64_t bound,
                                   Lit activation) {
  buf_ += "OB";
  append_int(static_cast<std::int64_t>(objective));
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  buf_ += '\n';
}

void ProofLog::theory_clause(const TheoryJustification& just,
                             std::span<const Lit> lits) {
  buf_ += 'T';
  switch (just.tag) {
    case TheoryTag::DiffCycle: buf_ += " DC"; break;
    case TheoryTag::DiffBound: buf_ += " DB"; break;
    case TheoryTag::LinearBound: buf_ += " LS"; break;
    case TheoryTag::Dominance: buf_ += " DOM"; break;
    case TheoryTag::LinearLower: buf_ += " LL"; break;
    case TheoryTag::CombinatorBound: buf_ += " CB"; break;
  }
  for (const std::int64_t v : just.payload) append_int(v);
  buf_ += " ;";
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0\n";
}

void ProofLog::guarded_clause(Lit guard, std::span<const Lit> lits) {
  buf_ += 'G';
  append_lit(guard);
  for (const Lit l : lits) append_lit(l);
  buf_ += " 0\n";
}

void ProofLog::feasible_point(std::span<const std::int64_t> point) {
  buf_ += 'F';
  append_int(static_cast<std::int64_t>(point.size()));
  for (const std::int64_t v : point) append_int(v);
  buf_ += " 0\n";
}

}  // namespace aspmt::asp
