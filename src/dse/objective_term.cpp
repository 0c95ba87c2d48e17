#include "dse/objective_term.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "synth/objective_expr.hpp"

namespace aspmt::dse {

namespace {

/// Stride of the most significant lex child: Π_{j>0} (cap_j + 1).
/// Construction guarantees the full product fits an int64.
std::int64_t lex_head_stride(const std::vector<std::int64_t>& caps) {
  __int128 stride = 1;
  for (std::size_t j = 1; j < caps.size(); ++j) {
    stride *= static_cast<__int128>(caps[j]) + 1;
  }
  return static_cast<std::int64_t>(stride);
}

}  // namespace

ObjectiveTerm ObjectiveTerm::linear(std::string name,
                                    theory::LinearSumPropagator* propagator,
                                    theory::LinearSumPropagator::SumId sum) {
  if (propagator == nullptr) {
    throw std::invalid_argument("linear objective term without a propagator");
  }
  ObjectiveTerm t;
  t.kind_ = Kind::Linear;
  t.name_ = std::move(name);
  t.linear_ = propagator;
  t.sum_ = sum;
  t.id_ = sum;
  return t;
}

ObjectiveTerm ObjectiveTerm::makespan(std::string name,
                                      theory::DifferencePropagator* propagator,
                                      theory::DifferencePropagator::NodeId node) {
  if (propagator == nullptr) {
    throw std::invalid_argument("difference objective term without a propagator");
  }
  ObjectiveTerm t;
  t.kind_ = Kind::Difference;
  t.name_ = std::move(name);
  t.difference_ = propagator;
  t.node_ = node;
  t.id_ = node;
  return t;
}

ObjectiveTerm ObjectiveTerm::combinator(Kind kind, std::string name,
                                        std::vector<std::int64_t> params,
                                        std::vector<ObjectiveTerm> children) {
  ObjectiveTerm t;
  t.kind_ = kind;
  t.name_ = std::move(name);
  t.params_ = std::move(params);
  t.children_ = std::move(children);
  return t;
}

ObjectiveTerm ObjectiveTerm::lex(std::string name,
                                 std::vector<std::int64_t> caps,
                                 std::vector<ObjectiveTerm> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("lex needs at least two children");
  }
  if (caps.size() != children.size()) {
    throw std::invalid_argument("lex cap arity mismatch");
  }
  __int128 range = 1;
  for (const std::int64_t c : caps) {
    if (c < 0) throw std::invalid_argument("negative lex cap");
    range *= static_cast<__int128>(c) + 1;
    if (range > std::numeric_limits<std::int64_t>::max()) {
      throw std::invalid_argument("lex caps overflow the packed axis");
    }
  }
  return combinator(Kind::Lex, std::move(name), std::move(caps),
                    std::move(children));
}

ObjectiveTerm ObjectiveTerm::minmax(std::string name,
                                    std::vector<ObjectiveTerm> children) {
  if (children.size() < 2) {
    throw std::invalid_argument("minmax needs at least two children");
  }
  return combinator(Kind::MinMax, std::move(name), {}, std::move(children));
}

ObjectiveTerm ObjectiveTerm::weighted(std::string name,
                                      std::vector<std::int64_t> weights,
                                      std::vector<ObjectiveTerm> children) {
  if (children.empty()) {
    throw std::invalid_argument("weighted needs at least one child");
  }
  if (weights.size() != children.size()) {
    throw std::invalid_argument("weighted arity mismatch");
  }
  for (const std::int64_t w : weights) {
    if (w < 1) throw std::invalid_argument("weights must be >= 1");
  }
  return combinator(Kind::Weighted, std::move(name), std::move(weights),
                    std::move(children));
}

ObjectiveTerm& ObjectiveTerm::with_floor(theory::LinearSumPropagator::SumId sum) {
  if (kind_ != Kind::Linear) {
    throw std::invalid_argument("floors attach to linear leaves only");
  }
  if (floor_) throw std::invalid_argument("the leaf already has a floor");
  floor_ = sum;
  return *this;
}

std::int64_t ObjectiveTerm::lower_bound() const {
  switch (kind_) {
    case Kind::Linear: {
      const std::int64_t own = linear_->lower_bound(sum_);
      return floor_ ? std::max(own, linear_->lower_bound(*floor_)) : own;
    }
    case Kind::Difference:
      return difference_->lower_bound(node_);
    case Kind::Lex: {
      std::vector<std::int64_t> lbs;
      lbs.reserve(children_.size());
      for (const ObjectiveTerm& c : children_) lbs.push_back(c.lower_bound());
      return synth::lex_pack(lbs, params_);
    }
    case Kind::MinMax: {
      std::int64_t best = 0;
      for (const ObjectiveTerm& c : children_) {
        best = std::max(best, c.lower_bound());
      }
      return best;
    }
    case Kind::Weighted: {
      __int128 total = 0;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        total += static_cast<__int128>(params_[i]) * children_[i].lower_bound();
      }
      if (total > std::numeric_limits<std::int64_t>::max()) {
        return std::numeric_limits<std::int64_t>::max();
      }
      return static_cast<std::int64_t>(total);
    }
  }
  return 0;
}

void ObjectiveTerm::explain(std::int64_t threshold,
                            std::vector<asp::Lit>& out) const {
  if (threshold <= 0) return;
  switch (kind_) {
    case Kind::Linear: {
      // Prefer the primary sum (checker-re-derivable); fall back to the
      // floor (uncertified runs only — a proof-logged context builds none).
      if (linear_->lower_bound(sum_) >= threshold) {
        linear_->explain_lower_bound(sum_, threshold, out);
        return;
      }
      if (floor_ && linear_->lower_bound(*floor_) >= threshold) {
        linear_->explain_lower_bound(*floor_, threshold, out);
        return;
      }
      assert(false && "no source explains the requested threshold");
      return;
    }
    case Kind::Difference:
      difference_->explain_bound(node_, out);
      return;
    case Kind::MinMax: {
      // One child carrying the max suffices: the checker's re-derived child
      // bound folds through max monotonically.
      for (const ObjectiveTerm& c : children_) {
        if (c.lower_bound() >= threshold) {
          c.explain(threshold, out);
          return;
        }
      }
      assert(false && "no child explains the minmax threshold");
      return;
    }
    case Kind::Weighted: {
      // Explain every child at its current bound: the checker re-derives at
      // least these child values, and Σ w_i · lb_i >= threshold already.
      for (const ObjectiveTerm& c : children_) {
        c.explain(c.lower_bound(), out);
      }
      return;
    }
    case Kind::Lex: {
      // Explain each child at its clamped bound; packing the clamped child
      // values reproduces lower_bound() >= threshold, and any larger
      // re-derived child value only raises the packed value.
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const std::int64_t clamped =
            std::min(children_[i].lower_bound(), params_[i]);
        children_[i].explain(clamped, out);
      }
      return;
    }
  }
}

bool ObjectiveTerm::push_bound(std::int64_t bound, asp::Lit activation) const {
  switch (kind_) {
    case Kind::Linear:
      linear_->add_bound(sum_, bound, activation);
      if (floor_) {
        // A floor never exceeds the leaf, so the same ceiling holds for it.
        linear_->add_bound(*floor_, bound, activation);
      }
      return true;
    case Kind::Difference:
      difference_->add_bound(node_, bound, activation);
      return true;
    case Kind::MinMax: {
      // max(children) <= B  <=>  every child <= B: complete fan-out.
      bool complete = true;
      for (const ObjectiveTerm& c : children_) {
        complete &= c.push_bound(bound, activation);
      }
      return complete;
    }
    case Kind::Weighted: {
      // w_i·c_i <= Σ w_j·c_j <= B (children are >= 0), so c_i <= B/w_i is
      // sound — but the conjunction of the pushed bounds does not imply the
      // aggregate bound: a residual combinator bound is required.
      for (std::size_t i = 0; i < children_.size(); ++i) {
        children_[i].push_bound(bound / params_[i], activation);
      }
      return false;
    }
    case Kind::Lex: {
      // Only the most significant child admits a sound prefix bound:
      // clamp(c_0)·stride_0 <= value <= B forces c_0 <= B/stride_0 whenever
      // that quotient is below cap_0.  Deeper children stay unconstrained
      // (their contribution can be compensated), so a residual bound is
      // always required.
      if (bound < 0) {
        children_[0].push_bound(-1, activation);
        return false;
      }
      const std::int64_t head = bound / lex_head_stride(params_);
      if (head < params_[0]) {
        children_[0].push_bound(head, activation);
      }
      return false;
    }
  }
  return false;
}

bool ObjectiveTerm::push_lower_bound(std::int64_t bound,
                                     asp::Lit activation) const {
  if (kind_ != Kind::Linear) return false;
  linear_->add_lower_bound(sum_, bound, activation);
  return true;
}

void ObjectiveTerm::serialize(std::string& out) const {
  auto token = [&out](const std::string& t) {
    if (!out.empty() && out.back() != ' ') out += ' ';
    out += t;
  };
  switch (kind_) {
    case Kind::Linear:
      token("L");
      token(std::to_string(sum_));
      return;
    case Kind::Difference:
      token("D");
      token(std::to_string(node_));
      return;
    case Kind::Lex:
      token("X");
      break;
    case Kind::MinMax:
      token("M");
      break;
    case Kind::Weighted:
      token("W");
      break;
  }
  token(std::to_string(children_.size()));
  for (const std::int64_t p : params_) token(std::to_string(p));
  for (const ObjectiveTerm& c : children_) c.serialize(out);
}

}  // namespace aspmt::dse
