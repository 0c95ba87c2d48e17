// Pareto archives: the mutable non-dominated set maintained during
// exploration.  Two implementations share one interface so the dominance
// propagator can be parameterised (Figure 4 ablation): a linear-scan list
// and the quad-tree of the ASP-DAC'18 companion paper (quadtree.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "pareto/point.hpp"

namespace aspmt::pareto {

class Archive {
 public:
  virtual ~Archive() = default;

  Archive() = default;
  Archive(const Archive&) = delete;
  Archive& operator=(const Archive&) = delete;

  /// Insert `p` unless it is weakly dominated by an archive point; points
  /// dominated by `p` are evicted.  Returns true iff `p` was inserted.
  virtual bool insert(const Vec& p) = 0;

  /// Some archive point that weakly dominates `q`, or nullptr.  The pointer
  /// is invalidated by the next insert.
  [[nodiscard]] virtual const Vec* find_weak_dominator(const Vec& q) const = 0;

  /// Evict every archived point weakly dominated by `p`, except a point
  /// equal to `p` itself.  Returns the number of evicted points.  This is
  /// exactly the eviction half of insert(); the concurrent sharded archive
  /// uses it to clear foreign shards before inserting into the home shard.
  virtual std::size_t erase_dominated_by(const Vec& p) = 0;

  [[nodiscard]] virtual std::size_t size() const noexcept = 0;

  /// Snapshot of all points (sorted lexicographically for reproducibility).
  [[nodiscard]] virtual std::vector<Vec> points() const = 0;

  virtual void clear() = 0;

  /// Total dominance comparisons performed (for the Figure 4 ablation).
  [[nodiscard]] std::uint64_t comparisons() const noexcept {
    return comparisons_.load(std::memory_order_relaxed);
  }

 protected:
  // Atomic because the concurrent sharded archive runs const queries under a
  // shared lock, so concurrent readers bump this counter in parallel; the
  // count is a statistic, relaxed ordering suffices.
  mutable std::atomic<std::uint64_t> comparisons_{0};

  void count_comparison() const noexcept {
    comparisons_.fetch_add(1, std::memory_order_relaxed);
  }
};

/// Plain list archive with linear scans.
class LinearArchive final : public Archive {
 public:
  bool insert(const Vec& p) override;
  [[nodiscard]] const Vec* find_weak_dominator(const Vec& q) const override;
  std::size_t erase_dominated_by(const Vec& p) override;
  [[nodiscard]] std::size_t size() const noexcept override { return points_.size(); }
  [[nodiscard]] std::vector<Vec> points() const override;
  void clear() override { points_.clear(); }

 private:
  std::vector<Vec> points_;
};

/// Throws std::invalid_argument unless `p` has `dimensions` entries: the
/// check on the archive insert paths (the per-fixpoint dominator query stays
/// unchecked).
void check_dimensions(const Vec& p, std::size_t dimensions);

/// Factory used by benches/CLI: kind is "linear" or "quadtree".
[[nodiscard]] std::unique_ptr<Archive> make_archive(const std::string& kind,
                                                    std::size_t dimensions);

}  // namespace aspmt::pareto
