#include "pareto/quadtree.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace aspmt::pareto {

namespace {

/// Children per node, 2^dimensions; checked before the shift, which is
/// undefined from 32 dimensions up.
std::uint32_t fanout_for(std::size_t dimensions) {
  if (dimensions < 1 || dimensions > 16) {
    throw std::invalid_argument("quad-tree archive supports 1 to 16 "
                                "dimensions, not " +
                                std::to_string(dimensions));
  }
  return 1U << dimensions;
}

}  // namespace

QuadTreeArchive::QuadTreeArchive(std::size_t dimensions)
    : dims_(dimensions), fanout_(fanout_for(dimensions)) {}

std::uint32_t QuadTreeArchive::successorship(const Vec& q,
                                             const Vec& p) const noexcept {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < dims_; ++i) {
    if (q[i] >= p[i]) mask |= (1U << i);
  }
  return mask;
}

std::int32_t QuadTreeArchive::alloc(Vec point) {
  std::int32_t idx;
  if (!free_list_.empty()) {
    idx = free_list_.back();
    free_list_.pop_back();
    pool_[idx].point = std::move(point);
    std::fill(pool_[idx].children.begin(), pool_[idx].children.end(), kNull);
  } else {
    idx = static_cast<std::int32_t>(pool_.size());
    pool_.push_back(Node{std::move(point),
                         std::vector<std::int32_t>(fanout_, kNull)});
  }
  return idx;
}

void QuadTreeArchive::release(std::int32_t node) { free_list_.push_back(node); }

const Vec* QuadTreeArchive::dominator_in(std::int32_t node, const Vec& q) const {
  if (node == kNull) return nullptr;
  const Node& n = pool_[node];
  count_comparison();
  if (weakly_dominates(n.point, q)) return &n.point;
  const std::uint32_t mask = successorship(q, n.point);
  // A dominator x of q satisfies x <= q; inside child c every set bit i has
  // x_i >= n_i, which is only compatible when q_i >= n_i, i.e. c ⊆ mask.
  for (std::uint32_t c = 0; c < fanout_; ++c) {
    if ((c & ~mask) != 0) continue;
    if (const Vec* d = dominator_in(n.children[c], q); d != nullptr) return d;
  }
  return nullptr;
}

void QuadTreeArchive::collect_dominated(std::int32_t node, const Vec& q,
                                        std::vector<std::int32_t>& out) const {
  if (node == kNull) return;
  const Node& n = pool_[node];
  count_comparison();
  if (weakly_dominates(q, n.point)) out.push_back(node);
  // A point x >= q in child c: every unset bit i has x_i < n_i, compatible
  // only when q_i < n_i.
  std::uint32_t lt_mask = 0;  // bit i set iff q_i < n_i
  for (std::size_t i = 0; i < dims_; ++i) {
    if (q[i] < n.point[i]) lt_mask |= (1U << i);
  }
  const std::uint32_t full = fanout_ - 1;
  for (std::uint32_t c = 0; c < fanout_; ++c) {
    if (((~c & full) & ~lt_mask) != 0) continue;
    collect_dominated(n.children[c], q, out);
  }
}

void QuadTreeArchive::gather_all(std::int32_t node,
                                 std::vector<std::int32_t>& out) const {
  if (node == kNull) return;
  out.push_back(node);
  for (const std::int32_t c : pool_[node].children) gather_all(c, out);
}

void QuadTreeArchive::detach_doomed(std::int32_t& slot,
                                    const std::vector<char>& doomed,
                                    std::vector<std::int32_t>& survivors) {
  if (slot == kNull) return;
  if (doomed[slot]) {
    std::vector<std::int32_t> subtree;
    gather_all(slot, subtree);
    for (const std::int32_t n : subtree) {
      if (doomed[n]) {
        release(n);
      } else {
        survivors.push_back(n);
      }
    }
    slot = kNull;
    return;
  }
  for (std::int32_t& c : pool_[slot].children) detach_doomed(c, doomed, survivors);
}

void QuadTreeArchive::hang(std::int32_t node) {
  std::fill(pool_[node].children.begin(), pool_[node].children.end(), kNull);
  if (root_ == kNull) {
    root_ = node;
    return;
  }
  std::int32_t* slot = &root_;
  while (*slot != kNull) {
    Node& n = pool_[*slot];
    count_comparison();
    const std::uint32_t c = successorship(pool_[node].point, n.point);
    slot = &n.children[c];
  }
  *slot = node;
}

bool QuadTreeArchive::insert(const Vec& p) {
  check_dimensions(p, dims_);
  if (dominator_in(root_, p) != nullptr) return false;
  evict_dominated_by(p);
  hang(alloc(p));
  ++size_;
  return true;
}

void QuadTreeArchive::evict_dominated_by(const Vec& p) {
  std::vector<std::int32_t> doomed_list;
  collect_dominated(root_, p, doomed_list);
  if (doomed_list.empty()) return;
  std::vector<char> doomed(pool_.size(), 0);
  for (const std::int32_t n : doomed_list) doomed[n] = 1;
  std::vector<std::int32_t> survivors;
  detach_doomed(root_, doomed, survivors);
  size_ -= doomed_list.size();
  for (const std::int32_t n : survivors) hang(n);
}

const Vec* QuadTreeArchive::find_weak_dominator(const Vec& q) const {
  return dominator_in(root_, q);
}

std::vector<Vec> QuadTreeArchive::points() const {
  std::vector<std::int32_t> nodes;
  gather_all(root_, nodes);
  std::vector<Vec> out;
  out.reserve(nodes.size());
  for (const std::int32_t n : nodes) out.push_back(pool_[n].point);
  std::sort(out.begin(), out.end());
  return out;
}

void QuadTreeArchive::clear() {
  pool_.clear();
  free_list_.clear();
  root_ = kNull;
  size_ = 0;
}

}  // namespace aspmt::pareto
