#include "pareto/concurrent_archive.hpp"

#include <mutex>

namespace aspmt::pareto {

ConcurrentArchive::ConcurrentArchive(const std::string& kind,
                                     std::size_t dimensions)
    : dims_(dimensions), archive_(make_archive(kind, dimensions)) {}

bool ConcurrentArchive::insert(const Vec& p) {
  // Checked before the first query: find_weak_dominator does not check,
  // and would read past the end of a short point.
  check_dimensions(p, dims_);
  // Rejection pass: most candidates lose against the current front, and
  // concurrent rejections under the shared lock do not serialize.
  {
    std::shared_lock lock(mutex_);
    if (archive_->find_weak_dominator(p) != nullptr) return false;
  }
  // A peer may have inserted since the shared pass; the archive's own
  // insert re-checks dominance under the exclusive lock.
  std::unique_lock lock(mutex_);
  if (!archive_->insert(p)) return false;
  log_.push_back(p);
  generation_.store(log_.size(), std::memory_order_release);
  return true;
}

std::uint64_t ConcurrentArchive::fetch_updates(std::uint64_t since,
                                               std::vector<Vec>& out) const {
  std::shared_lock lock(mutex_);
  for (std::size_t i = since; i < log_.size(); ++i) out.push_back(log_[i]);
  return log_.size();
}

std::vector<Vec> ConcurrentArchive::points() const {
  std::shared_lock lock(mutex_);
  return archive_->points();
}

std::size_t ConcurrentArchive::size() const {
  std::shared_lock lock(mutex_);
  return archive_->size();
}

std::uint64_t ConcurrentArchive::comparisons() const {
  return archive_->comparisons();  // an atomic counter; no lock needed
}

}  // namespace aspmt::pareto
