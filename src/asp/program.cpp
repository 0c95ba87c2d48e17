#include "asp/program.hpp"

#include <cassert>
#include <utility>

namespace aspmt::asp {

Atom Program::new_atom(std::string name) {
  const Atom a = static_cast<Atom>(names_.size());
  if (name.empty()) {
    name += 'x';
    name += std::to_string(a);
  }
  names_.push_back(std::move(name));
  return a;
}

void Program::rule(Atom head, std::vector<BodyLit> body) {
  assert(head < num_atoms());
  rules_.push_back(Rule{head, std::move(body), /*choice=*/false});
}

void Program::choice_rule(Atom head, std::vector<BodyLit> body) {
  assert(head < num_atoms());
  rules_.push_back(Rule{head, std::move(body), /*choice=*/true});
}

void Program::integrity(std::vector<BodyLit> body) {
  constraints_.push_back(std::move(body));
}

}  // namespace aspmt::asp
