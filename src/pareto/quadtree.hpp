// Quad-tree Pareto archive (Habenicht-style, as used in the ASP-DAC'18
// companion paper "Utilizing quad-trees for efficient design space
// exploration with partial assignment evaluation").
//
// Each node stores one non-dominated point; a child slot is indexed by the
// *successorship* bitmask of its subtree relative to the node's point
// (bit i set iff child_point[i] >= node_point[i]).  Dominance queries then
// only descend into children whose mask is compatible with the query,
// skipping large parts of the archive.  Eviction detaches the doomed nodes
// and reinserts the surviving members of their subtrees.
#pragma once

#include <cstdint>
#include <vector>

#include "pareto/archive.hpp"

namespace aspmt::pareto {

class QuadTreeArchive final : public Archive {
 public:
  /// `dimensions` in [1, 16] (children per node = 2^dimensions); throws
  /// std::invalid_argument otherwise.
  explicit QuadTreeArchive(std::size_t dimensions);

  /// insert() throws std::invalid_argument on a point of the wrong
  /// dimension; find_weak_dominator(), the per-fixpoint query, does not
  /// check.
  bool insert(const Vec& p) override;
  [[nodiscard]] const Vec* find_weak_dominator(const Vec& q) const override;
  [[nodiscard]] std::size_t size() const noexcept override { return size_; }
  [[nodiscard]] std::vector<Vec> points() const override;
  void clear() override;

 private:
  static constexpr std::int32_t kNull = -1;

  struct Node {
    Vec point;
    std::vector<std::int32_t> children;  // 2^k entries
  };

  /// bit i set iff q[i] >= p[i].
  [[nodiscard]] std::uint32_t successorship(const Vec& q, const Vec& p) const noexcept;
  [[nodiscard]] const Vec* dominator_in(std::int32_t node, const Vec& q) const;
  void collect_dominated(std::int32_t node, const Vec& q,
                         std::vector<std::int32_t>& out) const;
  /// The eviction half of insert(): drop every node `p` weakly dominates
  /// (none equals `p`, which no archive point weakly dominates) and re-hang
  /// the survivors of their subtrees.
  void evict_dominated_by(const Vec& p);
  /// Detach doomed subtree roots below `slot`, gathering survivors.
  void detach_doomed(std::int32_t& slot, const std::vector<char>& doomed,
                     std::vector<std::int32_t>& survivors);
  void gather_all(std::int32_t node, std::vector<std::int32_t>& out) const;
  /// Re-hang an existing pool node (children cleared) under the root.
  void hang(std::int32_t node);

  [[nodiscard]] std::int32_t alloc(Vec point);
  void release(std::int32_t node);

  std::size_t dims_;
  std::uint32_t fanout_;
  std::vector<Node> pool_;
  std::vector<std::int32_t> free_list_;
  std::int32_t root_ = kNull;
  std::size_t size_ = 0;
};

}  // namespace aspmt::pareto
