// Learnt-clause exchange between the workers of an uncertified portfolio
// (ManySAT / plingeling style; DESIGN.md §7 has the soundness argument).
//
// Each worker offers its learnt clauses through its Port, the solver's
// ClauseExchange, and receives its peers' at decision level 0.  A Port
// admits only short, low-LBD clauses over the shared encoding's variables:
// replay guards, shard and drill-down activations are allocated after the
// encoding and occur in clauses only negated, so a clause derived under one
// mentions it and stays home.  What is admitted follows from the encoding,
// the theories and the shared archive, whose dominated region only grows,
// so it stays valid for every peer for the whole run.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <vector>

#include "asp/solver.hpp"

namespace aspmt::dse {

class ClausePool {
 public:
  /// Admission limits: at most this LBD and this many literals.
  static constexpr std::uint32_t kMaxLbd = 6;
  static constexpr std::size_t kMaxSize = 40;

  explicit ClausePool(std::size_t workers) : cursors_(workers, 0) {}
  ClausePool(const ClausePool&) = delete;
  ClausePool& operator=(const ClausePool&) = delete;

  /// One worker's end of the pool, wired into its solver.
  class Port final : public asp::ClauseExchange {
   public:
    Port(ClausePool& pool, std::size_t worker) : pool_(pool), worker_(worker) {}
    /// Admit only clauses over variables below `bound` (the shared
    /// encoding's variable count).  Until it is set, nothing is admitted.
    void set_var_bound(std::uint32_t bound) noexcept { var_bound_ = bound; }
    void offer(std::span<const asp::Lit> lits, std::uint32_t lbd) override;
    void receive(std::vector<asp::SharedClause>& out) override;
    [[nodiscard]] std::uint64_t exported() const noexcept { return exported_; }
    [[nodiscard]] std::uint64_t imported() const noexcept { return imported_; }

   private:
    ClausePool& pool_;
    std::size_t worker_;
    std::uint32_t var_bound_ = 0;
    std::uint64_t exported_ = 0;
    std::uint64_t imported_ = 0;
  };

  /// `worker` reads no more (it finished or died): the pool stops keeping
  /// clauses for it.
  void leave(std::size_t worker);

 private:
  struct Entry {
    std::size_t from;
    asp::SharedClause clause;
  };
  static constexpr std::uint64_t kLeft = UINT64_MAX;

  void push(std::size_t worker, std::span<const asp::Lit> lits,
            std::uint32_t lbd);
  std::size_t pull(std::size_t worker, std::vector<asp::SharedClause>& out);
  void release_read();  // under mutex_

  std::mutex mutex_;
  std::deque<Entry> entries_;
  std::uint64_t first_ = 0;             // sequence number of entries_.front()
  std::vector<std::uint64_t> cursors_;  // next sequence number each worker reads
};

}  // namespace aspmt::dse
