// Ground answer-set programs.
//
// A Program is a bag of normal rules, choice rules and integrity constraints
// over dense atom ids with optional symbolic names.  The synthesis encoder
// builds its ground program directly (the role a grounder plays in the
// clingo pipeline); `compile()` (completion.hpp) translates a tight Program
// into solver clauses.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace aspmt::asp {

using Atom = std::uint32_t;

/// A body element: an atom occurring positively (`a`) or under default
/// negation (`not a`).
struct BodyLit {
  Atom atom = 0;
  bool positive = true;

  friend bool operator==(const BodyLit&, const BodyLit&) = default;
};

[[nodiscard]] inline BodyLit pos(Atom a) noexcept { return BodyLit{a, true}; }
[[nodiscard]] inline BodyLit neg(Atom a) noexcept { return BodyLit{a, false}; }

struct Rule {
  Atom head = 0;
  std::vector<BodyLit> body;
  bool choice = false;  ///< true for `{head} :- body.`
};

class Program {
 public:
  /// Create a fresh atom; `name` is kept for diagnostics.
  Atom new_atom(std::string name = {});

  [[nodiscard]] std::uint32_t num_atoms() const noexcept {
    return static_cast<std::uint32_t>(names_.size());
  }

  [[nodiscard]] const std::string& name(Atom a) const { return names_[a]; }

  /// `head :- body.`
  void rule(Atom head, std::vector<BodyLit> body);

  /// `{head} :- body.`
  void choice_rule(Atom head, std::vector<BodyLit> body = {});

  /// `head.`
  void fact(Atom head) { rule(head, {}); }

  /// `:- body.`
  void integrity(std::vector<BodyLit> body);

  [[nodiscard]] std::span<const Rule> rules() const noexcept { return rules_; }
  [[nodiscard]] std::span<const std::vector<BodyLit>> constraints() const noexcept {
    return constraints_;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Rule> rules_;
  std::vector<std::vector<BodyLit>> constraints_;
};

}  // namespace aspmt::asp
