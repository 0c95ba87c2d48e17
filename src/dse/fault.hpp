// Fault-injection harness for the exploration runtime.
//
// The hook points are compiled in unconditionally (each is a null-pointer
// check when no plan is armed) so the *production* code paths — worker
// containment, budget trips, checkpoint corruption detection — are the ones
// under test, not a test-only build flavor.  A plan is armed either
// programmatically (ExploreOptions::fault) or through the environment:
//
//   ASPMT_FAULT_INJECT="worker-throw=1:2,alloc-fail=3,deadline-polls=5,corrupt-checkpoint"
//
//   worker-throw=W[:M]   worker W throws std::runtime_error after its M-th
//                        accepted model (default M = 1); M = 0 throws as
//                        soon as the worker has built its search context,
//                        before its first solve
//   alloc-fail[=N]       the N-th witness capture across the run throws
//                        std::bad_alloc (default N = 1)
//   deadline-polls=N     the budget deadline trips on the N-th monitor poll
//                        (deadline expiry mid-propagation)
//   corrupt-checkpoint   every checkpoint write flips one payload byte
//                        after the checksum was computed
//   sync-fail            every durable (tmp+rename) write reports fsync
//                        failure; the write proceeds but callers must
//                        surface the degraded-durability diagnostic
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace aspmt::dse {

struct FaultPlan {
  int throw_worker = -1;                   ///< worker index to crash; -1 = off
  std::uint64_t throw_after_models = 1;    ///< crash on the N-th accepted model
                                           ///< (0: once the context is built)
  std::uint64_t alloc_fail_after = 0;      ///< 0 = off; N-th capture throws
  std::uint64_t deadline_after_polls = 0;  ///< 0 = off; N-th poll trips deadline
  bool corrupt_checkpoint = false;         ///< writer flips a payload byte
  bool sync_fail = false;                  ///< durable writes report fsync loss

  [[nodiscard]] bool any() const noexcept {
    return throw_worker >= 0 || alloc_fail_after != 0 ||
           deadline_after_polls != 0 || corrupt_checkpoint || sync_fail;
  }

  /// Parse the ASPMT_FAULT_INJECT syntax; throws std::invalid_argument on
  /// unknown keys or malformed numbers.
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  /// The plan armed via the environment; all-off when the variable is unset.
  [[nodiscard]] static FaultPlan from_env();
};

/// Mutable per-run counters behind the hook points (the plan itself stays
/// const and shareable).
struct FaultState {
  std::atomic<std::uint64_t> captures{0};
  std::atomic<std::uint64_t> polls{0};
};

/// Hook: worker `worker` has `models` accepted models (0: it has just built
/// its context); throws when armed.
void fault_worker_throw(const FaultPlan* plan, std::size_t worker,
                        std::uint64_t models);

/// Hook: one witness capture is about to run; throws std::bad_alloc when
/// the armed capture count is reached.
void fault_alloc(const FaultPlan* plan, FaultState* state);

}  // namespace aspmt::dse
