#include "dse/session.hpp"

#include <utility>

#include "dse/checkpoint.hpp"
#include "dse/respec.hpp"

namespace aspmt::dse {

ParallelExploreResult Session::run() {
  const std::lock_guard<std::mutex> run_lock(run_mutex_);

  auto budget = std::make_shared<Budget>(options_.limits);
  {
    const std::lock_guard<std::mutex> lock(budget_mutex_);
    budget_ = budget;
  }
  if (cancelled_.load(std::memory_order_acquire)) {
    budget->interrupt();  // poisoned session: the attempt stops immediately
  }

  ParallelExploreOptions opts = options_.base;
  opts.common.budget = budget.get();
  opts.common.checkpoint_path = options_.checkpoint_path;
  opts.common.checkpoint_interval_seconds =
      options_.checkpoint_interval_seconds;

  // Restart: a checkpoint at the session's anchor means a previous attempt
  // (this process or a predecessor that was killed) made progress.  A
  // missing or corrupt file is a cold start; a loaded one goes through the
  // one restart step, which classifies it against the spec and re-validates
  // every point it reuses.
  if (!options_.checkpoint_path.empty()) {
    Checkpoint ckpt;
    if (load_checkpoint(options_.checkpoint_path, ckpt).empty()) {
      reuse_checkpoint(ckpt, spec_, opts);
    }
  }
  return explore_parallel(spec_, opts);
}

void Session::cancel() {
  cancelled_.store(true, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(budget_mutex_);
  if (budget_ != nullptr) budget_->interrupt();
}

void Session::interrupt() {
  const std::lock_guard<std::mutex> lock(budget_mutex_);
  if (budget_ != nullptr) budget_->interrupt();
}

}  // namespace aspmt::dse
