// Observability event taxonomy (DESIGN.md §11).
//
// Every instrumented subsystem reports through one fixed-size POD `Event`:
// a kind tag, the emitting worker, a nanosecond timestamp relative to the
// run's collector epoch, and up to three int64 payload words whose meaning
// is per-kind (documented on the enumerators).  Keeping the record flat and
// small (40 bytes) lets the per-thread ring buffers move events with a
// single memcpy-class store and no allocation on the producer side.
#pragma once

#include <cstdint>

namespace aspmt::obs {

enum class EventKind : std::uint8_t {
  /// Exploration run begins.  a = wall-clock limit in ms (0 = unlimited),
  /// b = worker count, c = conflict budget (0 = unlimited).
  RunStart = 0,
  /// Exploration run ends.  a = front size, b = total models, c = 1 iff the
  /// front was proven exact.
  RunEnd,
  /// Worker thread enters its search loop.  a = worker index.
  WorkerStart,
  /// Worker thread leaves its search loop.  a = models accepted,
  /// b = conflicts, c = 1 iff the worker failed (contained exception).
  WorkerEnd,
  /// Solver::solve() entered.  a = number of assumptions.
  SolveStart,
  /// Solver::solve() returned.  a = result (0 Sat, 1 Unsat, 2 Unknown),
  /// b = cumulative conflicts, c = cumulative propagations.
  SolveEnd,
  /// Solver restarted.  a = cumulative restarts.
  Restart,
  /// Periodic counter sample from the solver's monitor cadence (solve
  /// entry / every restart / every monitor_interval conflicts).
  /// a = cumulative conflicts, b = cumulative propagations, c = cumulative
  /// decisions — per worker, so rates can be derived between samples.
  StatsSample,
  /// An accepted answer set.  a,b,c = the model's objective vector.
  ModelFound,
  /// A point entered the Pareto archive.  a,b,c = the point.
  ArchiveInsert,
  /// An insertion evicted dominated points.  a = number evicted,
  /// b = archive size after the insertion.
  ArchiveEvict,
  /// A dominance conflict pruned a subtree.  a = cumulative prunings of the
  /// emitting worker's propagator.
  DominancePrune,
  /// The run's Budget tripped; emitted once per worker on first observation
  /// (the trip itself may happen in a signal handler).  a = StopReason.
  BudgetTrip,
  /// An archive checkpoint was written.  a = points in the snapshot,
  /// b = 1 on success, 0 on a (contained) write failure.
  CheckpointWrite,
  /// A validated heuristic seed entered the archive before solving began.
  /// a,b,c = the seeded point.
  WarmStartSeed,
  /// Incremental re-exploration classified a spec delta (dse/respec.hpp).
  /// a = DeltaClass, b = changed-section bitmask (tasks=1, resources=2,
  /// mappings=4, objectives=8), c = 1 iff the run degraded to a cold start.
  RespecDelta,
  /// Incremental re-exploration reuse summary.  a = archive witnesses
  /// reused, b = learnt clauses replayed, c = 0.
  RespecReuse,
  /// Distributed exploration (dse/distributed.hpp): a shard was handed to a
  /// worker process.  a = shard id, b = band lower bound (clamped to
  /// int64), c = band upper bound.
  ShardSpawn,
  /// A shard's worker finished.  a = shard id, b = 1 iff it delivered a
  /// result (0 = died or timed out), c = attempt number (1-based).
  ShardExit,
  /// A dead shard was requeued onto the surviving workers.  a = shard id,
  /// b = attempt number the requeue starts, c = 1 iff a checkpoint was
  /// available to resume from.
  ShardRequeue,
  /// A point streamed up from a shard worker over the control channel.
  /// a,b,c = the point (coordinator-side mirror of ArchiveInsert).
  ShardPoint,
  /// Heartbeat received from a shard worker.  a = shard id, b = the
  /// worker-reported elapsed ms, c = points received from it so far.
  ShardHeartbeat,
  /// Exploration service (serve/server.hpp): a job passed admission.
  /// a = job sequence number, b = queue depth after admission, c = the
  /// job's priority.
  JobAdmit,
  /// A queued job was load-shed (overload watermark crossed).  a = job
  /// sequence number, b = queue depth at the shed decision, c = 1 iff the
  /// trigger was RSS (0 = queue depth).
  JobShed,
  /// A failed job was requeued for a supervised retry.  a = job sequence
  /// number, b = attempt number the retry starts, c = backoff delay in ms.
  JobRequeue,
  /// A job exhausted its retry budget and was quarantined.  a = job
  /// sequence number, b = failed attempts.
  JobQuarantine,
  /// A job reached a terminal state.  a = job sequence number,
  /// b = terminal JobState, c = front size (terminal runs only).
  JobDone,
};

/// Number of distinct EventKind values (array sizing in exporters).
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::JobDone) + 1;

/// Stable kebab-case name, e.g. "model-found" (NDJSON + trace export).
[[nodiscard]] const char* kind_name(EventKind kind) noexcept;

struct Event {
  std::uint64_t t_ns = 0;  ///< nanoseconds since the collector epoch
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t c = 0;
  EventKind kind = EventKind::RunStart;
  std::uint16_t worker = 0;
};

}  // namespace aspmt::obs
