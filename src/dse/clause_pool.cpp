#include "dse/clause_pool.hpp"

#include <algorithm>

namespace aspmt::dse {

void ClausePool::Port::offer(std::span<const asp::Lit> lits, std::uint32_t lbd) {
  if (lbd > kMaxLbd || lits.size() > kMaxSize) return;
  for (const asp::Lit l : lits) {
    if (l.var() >= var_bound_) return;
  }
  pool_.push(worker_, lits, lbd);
  ++exported_;
}

void ClausePool::Port::receive(std::vector<asp::SharedClause>& out) {
  imported_ += pool_.pull(worker_, out);
}

void ClausePool::push(std::size_t worker, std::span<const asp::Lit> lits,
                      std::uint32_t lbd) {
  Entry e{worker, {{lits.begin(), lits.end()}, lbd}};
  const std::lock_guard lock(mutex_);
  entries_.push_back(std::move(e));
}

std::size_t ClausePool::pull(std::size_t worker,
                             std::vector<asp::SharedClause>& out) {
  const std::lock_guard lock(mutex_);
  std::uint64_t& cursor = cursors_[worker];
  const std::uint64_t end = first_ + entries_.size();
  std::size_t received = 0;
  for (; cursor < end; ++cursor) {
    const Entry& e = entries_[cursor - first_];
    if (e.from == worker) continue;
    out.push_back(e.clause);
    ++received;
  }
  release_read();
  return received;
}

void ClausePool::leave(std::size_t worker) {
  const std::lock_guard lock(mutex_);
  cursors_[worker] = kLeft;
  release_read();
}

void ClausePool::release_read() {
  const std::uint64_t read = *std::min_element(cursors_.begin(), cursors_.end());
  while (!entries_.empty() && first_ < read) {
    entries_.pop_front();
    ++first_;
  }
}

}  // namespace aspmt::dse
