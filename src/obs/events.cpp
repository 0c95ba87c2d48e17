#include "obs/events.hpp"

namespace aspmt::obs {

const char* kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::RunStart: return "run-start";
    case EventKind::RunEnd: return "run-end";
    case EventKind::WorkerStart: return "worker-start";
    case EventKind::WorkerEnd: return "worker-end";
    case EventKind::SolveStart: return "solve-start";
    case EventKind::SolveEnd: return "solve-end";
    case EventKind::Restart: return "restart";
    case EventKind::StatsSample: return "stats-sample";
    case EventKind::ModelFound: return "model-found";
    case EventKind::ArchiveInsert: return "archive-insert";
    case EventKind::ArchiveEvict: return "archive-evict";
    case EventKind::DominancePrune: return "dominance-prune";
    case EventKind::BudgetTrip: return "budget-trip";
    case EventKind::CheckpointWrite: return "checkpoint-write";
    case EventKind::WarmStartSeed: return "warmstart-seed";
    case EventKind::RespecDelta: return "respec-delta";
    case EventKind::RespecReuse: return "respec-reuse";
    case EventKind::ShardSpawn: return "shard-spawn";
    case EventKind::ShardExit: return "shard-exit";
    case EventKind::ShardRequeue: return "shard-requeue";
    case EventKind::ShardPoint: return "shard-point";
    case EventKind::ShardHeartbeat: return "shard-heartbeat";
    case EventKind::JobAdmit: return "job-admit";
    case EventKind::JobShed: return "job-shed";
    case EventKind::JobRequeue: return "job-requeue";
    case EventKind::JobQuarantine: return "job-quarantine";
    case EventKind::JobDone: return "job-done";
  }
  return "unknown";
}

}  // namespace aspmt::obs
