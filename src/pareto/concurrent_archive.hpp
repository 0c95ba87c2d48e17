// Thread-safe shared Pareto archive for the parallel portfolio explorer.
//
// Points live in one of K shards (chosen by a content hash), each shard an
// independent single-threaded Archive behind its own shared_mutex.  The
// global invariant is the same as for a single archive — the union of all
// shards is mutually non-dominated — and is maintained by insert(), which
// first tries a cheap optimistic rejection (shared lock per shard, one at a
// time) and only escalates to the exclusive all-shard lock when the point
// survives every shard's dominance check.
//
// Every successful insertion is appended to an append-only log and bumps a
// lock-free generation counter.  Workers poll the counter with one relaxed
// atomic load per propagation fixpoint; only when it moved do they take a
// shared lock to pull the new points into their thread-local snapshot
// archive — so the hot dominance-pruning path never contends on the shared
// structure, yet bound constraints tighten mid-search as peers publish
// better points.  Pulling a stale/evicted log entry is harmless: the local
// snapshot insert either rejects it or later evicts it when the dominating
// entry arrives (dominance-blocked regions only ever grow).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "pareto/archive.hpp"

namespace aspmt::pareto {

class ConcurrentArchive {
 public:
  /// `kind` as in make_archive ("linear" or "quadtree"); `shards` >= 1.
  ConcurrentArchive(const std::string& kind, std::size_t dimensions,
                    std::size_t shards = 8);

  ConcurrentArchive(const ConcurrentArchive&) = delete;
  ConcurrentArchive& operator=(const ConcurrentArchive&) = delete;

  /// Thread-safe insert with single-archive semantics: rejected iff some
  /// archived point weakly dominates `p`; evicts points dominated by `p`
  /// across all shards.  Returns true iff `p` entered the archive.  Throws
  /// std::invalid_argument when `p` does not have dimensions() entries.
  /// `cancel`, when given, is honoured at the one point between the
  /// optimistic shared-lock pass and the exclusive escalation: a tripped
  /// token abandons the insert with zero mutation (returns false), so the
  /// archive is dominance-consistent at every cancellation instant.
  bool insert(const Vec& p, const std::atomic<bool>* cancel = nullptr);

  /// Number of successful insertions so far — a lock-free monotone counter.
  /// Readers compare it against their last-synced value to detect front
  /// updates without touching any lock.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Append all points inserted at log positions [since, generation()) to
  /// `out` and return the new position.  Entries may meanwhile have been
  /// evicted from the archive; replaying them into a local archive in log
  /// order converges to the same non-dominated set.
  std::uint64_t fetch_updates(std::uint64_t since, std::vector<Vec>& out) const;

  /// Consistent snapshot of the current non-dominated set, sorted
  /// lexicographically (all shards locked shared simultaneously).
  [[nodiscard]] std::vector<Vec> points() const;

  [[nodiscard]] std::size_t size() const;

  /// Total dominance comparisons across all shards.
  [[nodiscard]] std::uint64_t comparisons() const;

  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }
  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }

 private:
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unique_ptr<Archive> archive;
  };

  [[nodiscard]] std::size_t shard_of(const Vec& p) const noexcept;

  std::size_t dims_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::shared_mutex log_mutex_;
  std::vector<Vec> log_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace aspmt::pareto
