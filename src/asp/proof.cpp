#include "asp/proof.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace aspmt::asp {

ProofLog::ProofLog() {
  line_ = "p aspmt 1\n";
  end_line();
}

ProofLog::~ProofLog() {
  for (const Chunk& c : chunks_) ::munmap(c.data, c.capacity);
}

void ProofLog::end_line() {
  if (!open_ || chunks_.back().size + line_.size() > chunks_.back().capacity) {
    flush();
    chunks_.emplace_back();  // the one step that can throw with nothing mapped
    const std::size_t capacity = std::max(kChunkBytes, line_.size());
    void* const data = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                              MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data == MAP_FAILED) {
      chunks_.pop_back();
      throw std::bad_alloc();
    }
    chunks_.back() = {static_cast<char*>(data), 0, capacity};
    open_ = true;
  }
  Chunk& c = chunks_.back();
  std::memcpy(c.data + c.size, line_.data(), line_.size());
  c.size += line_.size();
  line_.clear();
}

void ProofLog::flush() {
  if (!open_) return;
  open_ = false;
  if (sink_) sink_({chunks_.back().data, chunks_.back().size});
}

std::string ProofLog::take_text() {
  std::size_t total = 0;
  for (const Chunk& c : chunks_) total += c.size;
  std::string text;
  text.reserve(total);
  for (const Chunk& c : chunks_) {
    text.append(c.data, c.size);
    ::munmap(c.data, c.capacity);
  }
  chunks_.clear();
  open_ = false;
  return text;
}

void ProofLog::append_int(std::int64_t v) {
  line_ += ' ';
  line_ += std::to_string(v);
}

void ProofLog::append_lit(Lit l) { append_int(proof_int(l)); }

void ProofLog::clause_step(char kind, std::span<const Lit> lits) {
  line_ += kind;
  for (const Lit l : lits) append_lit(l);
  line_ += " 0\n";
  end_line();
}

void ProofLog::def_sum(std::uint32_t sum,
                       std::span<const std::pair<Lit, std::int64_t>> terms) {
  line_ += 'S';
  append_int(sum);
  append_int(static_cast<std::int64_t>(terms.size()));
  for (const auto& [guard, weight] : terms) {
    append_lit(guard);
    append_int(weight);
  }
  line_ += '\n';
  end_line();
}

void ProofLog::def_sum_bound(std::uint32_t sum, std::int64_t bound, Lit activation) {
  line_ += "SB";
  append_int(sum);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  line_ += '\n';
  end_line();
}

void ProofLog::def_sum_lower_bound(std::uint32_t sum, std::int64_t bound,
                                   Lit activation) {
  line_ += "SL";
  append_int(sum);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  line_ += '\n';
  end_line();
}

void ProofLog::def_node(std::uint32_t node) {
  line_ += 'N';
  append_int(node);
  line_ += '\n';
  end_line();
}

void ProofLog::def_edge(std::uint32_t edge, std::uint32_t from, std::uint32_t to,
                        std::int64_t weight, std::span<const Lit> guards) {
  line_ += 'E';
  append_int(edge);
  append_int(from);
  append_int(to);
  append_int(weight);
  append_int(static_cast<std::int64_t>(guards.size()));
  for (const Lit g : guards) append_lit(g);
  line_ += '\n';
  end_line();
}

void ProofLog::def_node_bound(std::uint32_t node, std::int64_t bound,
                              Lit activation) {
  line_ += "NB";
  append_int(node);
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  line_ += '\n';
  end_line();
}

void ProofLog::def_objective_term(std::size_t objective,
                                  std::string_view tree_tokens) {
  line_ += 'O';
  append_int(static_cast<std::int64_t>(objective));
  line_ += ' ';
  line_ += tree_tokens;
  line_ += '\n';
  end_line();
}

void ProofLog::def_objective_bound(std::size_t objective, std::int64_t bound,
                                   Lit activation) {
  line_ += "OB";
  append_int(static_cast<std::int64_t>(objective));
  append_int(bound);
  append_int(activation == kLitUndef ? 0 : proof_int(activation));
  line_ += '\n';
  end_line();
}

void ProofLog::theory_clause(const TheoryJustification& just,
                             std::span<const Lit> lits) {
  line_ += 'T';
  switch (just.tag) {
    case TheoryTag::DiffCycle: line_ += " DC"; break;
    case TheoryTag::DiffBound: line_ += " DB"; break;
    case TheoryTag::LinearBound: line_ += " LS"; break;
    case TheoryTag::Dominance: line_ += " DOM"; break;
    case TheoryTag::LinearLower: line_ += " LL"; break;
    case TheoryTag::CombinatorBound: line_ += " CB"; break;
  }
  for (const std::int64_t v : just.payload) append_int(v);
  line_ += " ;";
  for (const Lit l : lits) append_lit(l);
  line_ += " 0\n";
  end_line();
}

void ProofLog::guarded_clause(Lit guard, std::span<const Lit> lits) {
  line_ += 'G';
  append_lit(guard);
  for (const Lit l : lits) append_lit(l);
  line_ += " 0\n";
  end_line();
}

void ProofLog::feasible_point(std::span<const std::int64_t> point) {
  line_ += 'F';
  append_int(static_cast<std::int64_t>(point.size()));
  for (const std::int64_t v : point) append_int(v);
  line_ += " 0\n";
  end_line();
}

}  // namespace aspmt::asp
