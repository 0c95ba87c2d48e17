// Thread-safe shared Pareto archive for the parallel portfolio explorer.
//
// One single-threaded Archive behind one shared_mutex, which also guards the
// insertion log.  insert() first runs a rejection pass under the shared lock
// (most candidates lose against the current front, and concurrent rejection
// passes do not serialize) and takes the exclusive lock only for a point
// that survives it; under that lock the archive's own insert re-checks
// dominance, evicts what the point dominates, and the point joins the log.
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
  /// `kind` as in make_archive ("linear" or "quadtree").
  ConcurrentArchive(const std::string& kind, std::size_t dimensions);

  ConcurrentArchive(const ConcurrentArchive&) = delete;
  ConcurrentArchive& operator=(const ConcurrentArchive&) = delete;

  /// Thread-safe insert with single-archive semantics: rejected iff some
  /// archived point weakly dominates `p`; evicts points dominated by `p`.
  /// Returns true iff `p` entered the archive.  Throws
  /// std::invalid_argument when `p` does not have dimensions() entries.
  bool insert(const Vec& p);

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
  /// lexicographically.
  [[nodiscard]] std::vector<Vec> points() const;

  [[nodiscard]] std::size_t size() const;

  /// Total dominance comparisons.
  [[nodiscard]] std::uint64_t comparisons() const;

  [[nodiscard]] std::size_t dimensions() const noexcept { return dims_; }

 private:
  std::size_t dims_;
  mutable std::shared_mutex mutex_;  // guards archive_ and log_
  std::unique_ptr<Archive> archive_;
  std::vector<Vec> log_;
  std::atomic<std::uint64_t> generation_{0};
};

}  // namespace aspmt::pareto
