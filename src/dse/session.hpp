// dse::Session — one exploration job as a restartable, cancellable unit.
//
// The batch explorers take a fully-wired options struct and run once; a
// long-lived service needs the same run to be (a) cancellable from another
// thread at any point, (b) restartable after a crash or a contained worker
// failure, and (c) re-attemptable without re-parsing or re-validating the
// specification.  Session packages exactly that: it owns the parsed spec,
// derives a fresh per-attempt Budget from fixed BudgetLimits (the numeric
// limits in CommonOptions would be consumed by the first attempt's
// wall-clock otherwise), pins the checkpoint path, and restarts from that
// checkpoint whenever a loadable one exists — which covers both the
// retry-after-failure path and the killed-daemon recovery path with the
// same code.  The restart is reuse_checkpoint (respec.hpp), the same step
// as the CLI's --resume: the checkpoint is classified against the spec and
// its points re-enter through the warm-start gate, so a retried attempt is
// exact and certifies like a first one.
//
// Cancellation is sticky: cancel() trips the current attempt's Budget and
// every future attempt starts pre-tripped, so a supervisor racing a cancel
// against a retry cannot resurrect a job.
#pragma once

#include <memory>
#include <mutex>
#include <string>

#include "dse/budget.hpp"
#include "dse/parallel_explorer.hpp"
#include "synth/spec.hpp"

namespace aspmt::dse {

struct SessionOptions {
  /// Explorer configuration.  `base.common.budget`, `.checkpoint_path` and
  /// `.checkpoint_interval_seconds` are owned by the session and overwritten
  /// on every attempt; a restart amends the rest (reuse_checkpoint), which
  /// otherwise passes through.
  ParallelExploreOptions base;
  /// Per-attempt resource ceilings (each attempt gets the full allowance —
  /// a retried job is not punished for its failed attempts' wall time).
  BudgetLimits limits;
  /// Crash-safety anchor ("" = none): periodic snapshots are written here
  /// and a loadable file found at attempt start is restarted from.
  std::string checkpoint_path;
  double checkpoint_interval_seconds = 1.0;
};

class Session {
 public:
  Session(synth::Specification spec, SessionOptions options)
      : spec_(std::move(spec)), options_(std::move(options)) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Run one attempt to completion (or budget trip / cancellation).
  /// Serialized: one attempt at a time per session.  May be called again
  /// after a failure or interruption; the new attempt restarts from the
  /// session checkpoint when one loads.
  [[nodiscard]] ParallelExploreResult run();

  /// Trip the in-flight attempt (if any) and poison future ones.
  /// Thread-safe, callable concurrently with run().
  void cancel();

  /// Stop the in-flight attempt without poisoning future ones (graceful
  /// drain: the attempt checkpoints and can be resumed by a later run()).
  void interrupt();

  [[nodiscard]] bool cancel_requested() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] const synth::Specification& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] const SessionOptions& options() const noexcept {
    return options_;
  }

 private:
  synth::Specification spec_;
  SessionOptions options_;
  std::mutex run_mutex_;  ///< serializes attempts

  /// The in-flight attempt's budget, published for cross-thread cancel.
  std::mutex budget_mutex_;
  std::shared_ptr<Budget> budget_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace aspmt::dse
