#include "dse/parallel_explorer.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cert/certify.hpp"
#include "dse/checkpoint.hpp"
#include "dse/context.hpp"
#include "obs/collector.hpp"
#include "obs/metrics.hpp"
#include "pareto/concurrent_archive.hpp"
#include "util/timer.hpp"

namespace aspmt::dse {
namespace {

/// Learnt clauses worker 0 dumps into the final checkpoint.
constexpr std::size_t kClauseDump = 1024;

/// Obs event payloads have exactly three slots; axes beyond them are elided
/// and missing ones report 0 (combinator specs may declare any axis count).
inline std::int64_t axis_or_zero(const pareto::Vec& p, std::size_t i) {
  return i < p.size() ? p[i] : 0;
}

std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return (x ^ (x >> 31)) | 1ULL;  // non-zero: 0 would disable jitter
}

struct SharedState {
  SharedState(const std::string& kind, std::size_t axes, Budget* bdg)
      : archive(kind, axes), budget(bdg) {}

  pareto::ConcurrentArchive archive;
  Budget* budget;
  std::atomic<bool> complete{false};
  util::Timer timer;

  std::mutex mutex;  // guards witnesses, discoveries, errors
  std::map<pareto::Vec, synth::Implementation> witnesses;
  std::vector<std::pair<double, pareto::Vec>> discoveries;
  std::vector<WorkerError> errors;

  CheckpointWriter* checkpoint = nullptr;
  const FaultPlan* fault = nullptr;
  FaultState fstate;
  std::uint64_t fingerprint = 0;
  // v3 checkpoint payload: per-section digests (set once at setup) and
  // worker 0's learnt-clause dump, published at its exit under `mutex`, so
  // only the final snapshot carries clauses — mid-run snapshots dump points
  // only.
  SectionDigests sections;
  std::uint32_t clause_base_vars = 0;
  std::vector<std::vector<std::int32_t>> clauses;
  /// ε-dominance slack every worker's propagator applies (empty = exact).
  pareto::Vec epsilon;
  /// Per-insert archive work histogram (nullptr without a metrics registry).
  /// In portfolio mode the comparison deltas are sampled off the shared
  /// atomic counter, so concurrent inserts may attribute a peer's work to
  /// each other — an approximation, flagged in DESIGN.md §11.
  obs::Histogram* insert_hist = nullptr;

  /// Contain a worker death: preserve the error.  Nothing else needs
  /// rescue: every survivor searches the whole problem.
  void record_failure(std::size_t worker, std::string message) {
    std::lock_guard lock(mutex);
    errors.push_back({worker, std::move(message)});
  }

  /// Consistent snapshot for the checkpoint writer.
  Checkpoint snapshot() {
    Checkpoint c;
    c.spec_fingerprint = fingerprint;
    c.has_sections = true;
    c.sections = sections;
    c.points = archive.points();
    std::lock_guard lock(mutex);
    if (!clauses.empty()) {
      c.clause_base_vars = clause_base_vars;
      c.clauses = clauses;
    }
    c.witnesses.reserve(c.points.size());
    for (const pareto::Vec& p : c.points) {
      const auto it = witnesses.find(p);
      c.witnesses.push_back(it == witnesses.end() ? synth::Implementation{}
                                                  : it->second);
    }
    return c;
  }
};

/// Diversified solver configuration for worker `index`.  Worker 0
/// keeps the caller's base configuration bit-for-bit (it is the portfolio's
/// anchor, and alone the whole of a one-worker run); the others jitter
/// tie-breaking, restart cadence and activity decay.
asp::SolverOptions diversify(asp::SolverOptions base, std::size_t index,
                             std::uint64_t portfolio_seed) {
  if (index == 0) return base;
  base.seed = mix_seed(portfolio_seed + index);
  base.restart_base = std::max<std::uint32_t>(
      1, base.restart_base << (index % 3));
  if (index % 3 == 2) base.var_decay = 0.90;
  return base;
}

void run_worker(std::size_t index, const synth::Specification& spec,
                const ParallelExploreOptions& opts, SharedState& shared,
                WorkerReport& report, asp::ProofLog* proof,
                obs::Recorder* rec) {
  util::Timer worker_timer;
  report.worker = index;
  const CommonOptions& common = opts.common;
  if (rec != nullptr) {
    rec->record(obs::EventKind::WorkerStart,
                static_cast<std::int64_t>(index));
  }

  ContextOptions copts;
  copts.archive_kind = common.archive_kind;
  copts.partial_evaluation = common.partial_evaluation;
  // Certified runs disable floors for checkable explanations (see
  // CommonOptions::certify) and give every worker its own proof stream.
  copts.objective_floors = proof != nullptr ? false : common.objective_floors;
  copts.proof = proof;
  copts.solver_options = diversify(common.solver_options, index, opts.seed);
  copts.solver_options.stop = shared.budget->token();
  BudgetMonitor monitor(shared.budget, shared.fault, &shared.fstate, rec);
  copts.solver_options.monitor = &monitor;
  copts.solver_options.recorder = rec;
  SynthContext ctx(spec, copts);
  assert(ctx.objectives.count() == spec.axis_count());
  ctx.dominance().attach_shared(&shared.archive);
  ctx.dominance().set_recorder(rec);
  ctx.dominance().set_epsilon(shared.epsilon);
  // Certified mode: the propagator emits an `F` step into this worker's
  // stream for every point it pulls from the shared front (its own
  // publications included, on the sync right after the insert) — so any DOM
  // lemma a point justifies has its feasible-point step earlier in the same
  // stream, whichever worker discovered (or warm-seeded) the point.
  ctx.dominance().set_proof(proof);

  // Incremental re-exploration (respec.hpp): every worker owns an
  // independent solver, so each installs the previous session's clauses
  // behind its own assumption guard.  The guard is dropped on the first
  // Unsat under it, before the completeness claim, so replay never taints
  // the global Unsat proof.
  const std::uint32_t base_vars = ctx.solver.num_vars();
  std::vector<asp::Lit> base_assume;
  if (!common.clause_replay.clauses.empty()) {
    const auto replay = decode_replay(common.clause_replay, base_vars);
    if (!replay.empty()) {
      std::size_t installed = 0;
      const asp::Lit guard = ctx.solver.add_guarded_clauses(replay, &installed);
      if (installed > 0) base_assume.push_back(guard);
      report.replayed_clauses = installed;
    }
  }

  // Distributed banding: permanent shard assumptions.  Unlike the replay
  // guard these are never dropped — the terminating Unsat is concluded
  // under exactly these activations, which is what makes it a *shard box*
  // proof the merge layer can combine across processes.  run_portfolio
  // checked the axis is a linear leaf, so both bounds install.
  std::vector<asp::Lit> shard_assume;
  if (opts.shard.active) {
    constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    if (opts.shard.hi != kMax) {
      const asp::Lit act = asp::Lit::make(ctx.solver.new_var(), true);
      // Primary-only: a floor-mirrored ceiling would make the checker's
      // shard-box extraction reject the activation as impure (bounds on
      // more than one sum).
      ctx.objectives.add_primary_bound(opts.shard.objective, opts.shard.hi,
                                       act);
      shard_assume.push_back(act);
    }
    if (opts.shard.lo != kMin) {
      const asp::Lit act = asp::Lit::make(ctx.solver.new_var(), true);
      ctx.objectives.add_lower_bound(opts.shard.objective, opts.shard.lo, act);
      shard_assume.push_back(act);
    }
  }

  const auto assume_all = [&]() {
    std::vector<asp::Lit> all = base_assume;
    all.insert(all.end(), shard_assume.begin(), shard_assume.end());
    return all;
  };

  const auto publish = [&](const pareto::Vec& point) {
    ++report.models;
    if (rec != nullptr) {
      rec->record(obs::EventKind::ModelFound, axis_or_zero(point, 0),
                  axis_or_zero(point, 1), axis_or_zero(point, 2));
    }
    fault_worker_throw(shared.fault, index, report.models);
    const bool observing = rec != nullptr && rec->enabled();
    const std::size_t before = observing ? shared.archive.size() : 0;
    const std::uint64_t cmp_before =
        shared.insert_hist != nullptr ? shared.archive.comparisons() : 0;
    const bool inserted = shared.archive.insert(point);
    if (shared.insert_hist != nullptr) {
      shared.insert_hist->observe(shared.archive.comparisons() - cmp_before);
    }
    ctx.dominance().sync_shared();
    if (!inserted) {
      ++report.rejected_inserts;
      return;
    }
    ++report.shared_inserts;
    if (observing) {
      rec->record(obs::EventKind::ArchiveInsert, axis_or_zero(point, 0),
                  axis_or_zero(point, 1), axis_or_zero(point, 2));
      const std::size_t after = shared.archive.size();
      // Sizes are sampled around a concurrent insert, so the eviction count
      // is best-effort under races; the post-insert size `after` is what
      // exporters treat as authoritative.
      if (before + 1 > after) {
        rec->record(obs::EventKind::ArchiveEvict,
                    static_cast<std::int64_t>(before + 1 - after),
                    static_cast<std::int64_t>(after));
      }
    }
    // No explicit F step here: the sync_shared() above already pulled this
    // publication back into the local snapshot and proof-logged it there
    // (rejected points may be dominated by a *different* peer point and
    // then have no witness, so only successful inserts ever reach a proof).
    {
      std::lock_guard lock(shared.mutex);
      shared.discoveries.emplace_back(shared.timer.elapsed_seconds(), point);
      fault_alloc(shared.fault, &shared.fstate);
      shared.witnesses[point] = ctx.capture().implementation();
    }
    if (shared.checkpoint != nullptr && shared.checkpoint->due()) {
      // Ignore write errors here: a failing disk must not kill the search.
      // The final write at end of run reports them.
      const Checkpoint c = shared.snapshot();
      const std::string err = shared.checkpoint->write_if_due(c);
      if (rec != nullptr) {
        rec->record(obs::EventKind::CheckpointWrite,
                    static_cast<std::int64_t>(c.points.size()),
                    err.empty() ? 1 : 0);
      }
    }
  };

  try {
    for (;;) {
      const asp::Solver::Result r =
          ctx.solver.solve(assume_all(), shared.budget->deadline());
      if (r == asp::Solver::Result::Unknown) break;  // peer finished or budget
      if (r == asp::Solver::Result::Unsat) {
        if (!base_assume.empty() && ctx.solver.ok()) {
          // Replay guard exhausted: the *augmented* problem is empty, which
          // proves nothing about the original.  Drop the guard and re-prove
          // completeness against the unmodified encoding.
          base_assume.clear();
          continue;
        }
        // Unsat under at most the permanent shard assumptions: every
        // feasible point (of the shard's band, or globally when unbanded)
        // is weakly dominated by the shared archive, which therefore is the
        // exact front of the explored region.
        report.proved_complete = true;
        shared.complete.store(true, std::memory_order_release);
        shared.budget->request_stop();
        break;
      }
      pareto::Vec point = ctx.capture().vector();
      publish(point);
      // Drill down to a Pareto-optimal point: the archive already blocks
      // f >= point, so requiring f <= point leaves exactly the strictly
      // better region.  A peer may publish a point first — the rejected
      // insert is counted, never asserted against.
      bool out_of_time = false;
      while (common.drill_down) {
        const asp::Lit act = asp::Lit::make(ctx.solver.new_var(), true);
        for (std::size_t o = 0; o < ctx.objectives.count(); ++o) {
          ctx.objectives.add_bound(o, point[o], act);
        }
        std::vector<asp::Lit> assume = assume_all();
        assume.push_back(act);
        const asp::Solver::Result r2 =
            ctx.solver.solve(assume, shared.budget->deadline());
        if (r2 == asp::Solver::Result::Unknown) {
          out_of_time = true;
          break;
        }
        if (r2 == asp::Solver::Result::Unsat) break;  // point is region-optimal
        point = ctx.capture().vector();
        publish(point);
      }
      if (out_of_time) break;
    }
  } catch (const std::exception& e) {
    // Contained: the shared archive keeps every published point, the
    // survivors' whole-problem searches cover the rest, and the run
    // degrades instead of dying.
    report.failed = true;
    report.error = e.what();
    shared.record_failure(index, e.what());
  } catch (...) {
    report.failed = true;
    report.error = "unknown exception";
    shared.record_failure(index, "unknown exception");
  }

  // Worker 0 donates its learnt clauses to the final v3 checkpoint (its
  // strategy matches what a future one-worker run or anchor solver would
  // replay against).
  if (index == 0) {
    std::vector<std::vector<std::int32_t>> dump;
    for (const std::vector<asp::Lit>& cl :
         ctx.solver.export_learnts(base_vars, kClauseDump)) {
      if (cl.size() > 1024) continue;  // the checkpoint format's clause cap
      std::vector<std::int32_t> dimacs;
      dimacs.reserve(cl.size());
      for (const asp::Lit l : cl) {
        const auto v = static_cast<std::int32_t>(l.var()) + 1;
        dimacs.push_back(l.positive() ? v : -v);
      }
      dump.push_back(std::move(dimacs));
    }
    if (!dump.empty()) {
      std::lock_guard lock(shared.mutex);
      shared.clause_base_vars = base_vars;
      shared.clauses = std::move(dump);
    }
  }

  const asp::SolverStats& s = ctx.solver.stats();
  report.prunings = ctx.dominance().prunings();
  report.conflicts = s.conflicts;
  report.decisions = s.decisions;
  report.propagations = s.propagations;
  report.restarts = s.restarts;
  report.theory_clauses = s.theory_clauses;
  report.archive_comparisons = ctx.archive().comparisons();
  report.seconds = worker_timer.elapsed_seconds();
  if (rec != nullptr) {
    rec->record(obs::EventKind::WorkerEnd,
                static_cast<std::int64_t>(report.models),
                static_cast<std::int64_t>(report.conflicts),
                report.failed ? 1 : 0);
  }
}

}  // namespace

std::string shard_axis_error(const synth::Specification& spec,
                             std::size_t objective) {
  const std::vector<synth::ObjectiveExpr> axes = spec.effective_objectives();
  if (objective < axes.size() &&
      axes[objective].kind == synth::ObjectiveExpr::Kind::Metric &&
      axes[objective].metric != "latency") {
    return {};
  }
  return "objective " + std::to_string(objective) +
         " is not shardable: only a linear leaf axis (an energy or cost "
         "metric) admits sound banding; latency (difference logic), "
         "combinator and out-of-range axes do not";
}

namespace detail {

ParallelExploreResult run_portfolio(const synth::Specification& spec,
                                    const ParallelExploreOptions& options,
                                    const pareto::Vec& epsilon) {
  // Before any worker starts: workers encode on their own threads, and a
  // throw there would surface as per-worker failures, not as this call's.
  spec.require_valid();
  const CommonOptions& common = options.common;
  if (!epsilon.empty() && epsilon.size() != spec.axis_count()) {
    throw std::invalid_argument(
        "epsilon has " + std::to_string(epsilon.size()) +
        " entries but the specification declares " +
        std::to_string(spec.axis_count()) + " objective axes");
  }
  if (options.shard.active) {
    if (std::string err = shard_axis_error(spec, options.shard.objective);
        !err.empty()) {
      throw std::invalid_argument(std::move(err));
    }
  }
  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  // An ε-approximate front is not the exact front a certificate asserts.
  const bool certify = common.certify && epsilon.empty();

  Budget local_budget(BudgetLimits{common.time_limit_seconds,
                                   common.conflict_budget,
                                   common.mem_limit_mb});
  Budget* budget = common.budget != nullptr ? common.budget : &local_budget;

  FaultPlan env_fault;
  const FaultPlan* fault = common.fault;
  if (fault == nullptr) {
    env_fault = FaultPlan::from_env();
    if (env_fault.any()) fault = &env_fault;
  }

  SharedState shared(common.archive_kind, spec.axis_count(), budget);
  shared.fault = fault;
  shared.epsilon = epsilon;
  shared.fingerprint = spec_fingerprint(spec);
  shared.sections = spec_sections(spec);
  if (common.metrics != nullptr) {
    shared.insert_hist =
        &common.metrics->histogram("archive.comparisons_per_insert");
  }

  // Observability: one SPSC ring per worker plus one for this orchestrating
  // thread (index `threads`), all drained by the collector into the sink.
  std::unique_ptr<obs::Collector> collector;
  obs::Recorder* orec = nullptr;  // the orchestrator's recorder
  if (common.sink != nullptr) {
    collector = std::make_unique<obs::Collector>(*common.sink, threads + 1);
    orec = &collector->recorder(threads);
    collector->start();
    orec->record(obs::EventKind::RunStart,
                 static_cast<std::int64_t>(common.time_limit_seconds * 1000.0),
                 static_cast<std::int64_t>(threads),
                 static_cast<std::int64_t>(common.conflict_budget));
  }
  const auto worker_recorder = [&](std::size_t w) -> obs::Recorder* {
    return collector != nullptr ? &collector->recorder(w) : nullptr;
  };

  ParallelExploreResult result;
  result.workers.resize(threads);
  if (common.certify && !certify) {
    result.base.certificate_error =
        "certification requires exact exploration (empty epsilon)";
  }

  // Warm start, for heuristic seeds and restarted checkpoints alike: the
  // gate's validated antichain enters the still-empty shared archive (so
  // every seed is accepted) before any worker spawns.  Every worker's first
  // generation-counter sync pulls the seeds (emitting per-stream F steps in
  // certified mode).  Search and this gate are the archive's only sources.
  if (warm_start_enabled(common.warm_start)) {
    WarmStartResult ws = generate_warm_seeds(spec, common.warm_start);
    ExploreStats& stats = result.base.stats;
    stats.warm_rejected = ws.rejected_invalid + ws.rejected_dominated;
    stats.warm_seeds = ws.seeds.size();
    for (WarmSeedCandidate& seed : ws.seeds) {
      shared.archive.insert(seed.point);
      shared.discoveries.emplace_back(shared.timer.elapsed_seconds(),
                                      seed.point);
      if (orec != nullptr) {
        orec->record(obs::EventKind::WarmStartSeed, axis_or_zero(seed.point, 0),
                     axis_or_zero(seed.point, 1), axis_or_zero(seed.point, 2));
      }
      shared.witnesses[seed.point] = std::move(seed.impl);
    }
  }

  std::unique_ptr<CheckpointWriter> ckpt_writer;
  if (!common.checkpoint_path.empty()) {
    ckpt_writer = std::make_unique<CheckpointWriter>(
        common.checkpoint_path, common.checkpoint_interval_seconds,
        fault != nullptr && fault->corrupt_checkpoint,
        fault != nullptr && fault->sync_fail);
    shared.checkpoint = ckpt_writer.get();
  }

  // Proof logs are per worker (never shared across threads); the winner's
  // becomes the portfolio's completeness certificate.
  std::vector<std::unique_ptr<asp::ProofLog>> logs(threads);
  if (certify) {
    for (auto& log : logs) log = std::make_unique<asp::ProofLog>();
  }

  if (threads == 1) {
    run_worker(0, spec, options, shared, result.workers[0], logs[0].get(),
               worker_recorder(0));
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        try {
          run_worker(w, spec, options, shared, result.workers[w],
                     logs[w].get(), worker_recorder(w));
        } catch (const std::exception& e) {
          // run_worker contains its own search-loop failures; this catch
          // covers context construction, which leaves no stats to report.
          result.workers[w].failed = true;
          result.workers[w].error = e.what();
          shared.record_failure(w, e.what());
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  result.worker_errors = shared.errors;

  result.base.front = shared.archive.points();
  result.base.witnesses.reserve(result.base.front.size());
  for (const pareto::Vec& p : result.base.front) {
    const auto it = shared.witnesses.find(p);
    if (it == shared.witnesses.end()) {
      // A worker death between archive insert and witness capture leaves
      // the point witness-less; report it instead of dereferencing end().
      result.base.witnesses.emplace_back();
      result.base.errors.push_back("missing witness for " +
                                   pareto::to_string(p));
    } else {
      result.base.witnesses.push_back(it->second);
    }
  }
  result.discovery_witnesses.assign(shared.witnesses.begin(),
                                    shared.witnesses.end());
  result.base.discoveries = std::move(shared.discoveries);
  std::stable_sort(result.base.discoveries.begin(),
                   result.base.discoveries.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  ExploreStats& stats = result.base.stats;
  for (const WorkerReport& w : result.workers) {
    stats.models += w.models;
    stats.prunings += w.prunings;
    stats.conflicts += w.conflicts;
    stats.decisions += w.decisions;
    stats.propagations += w.propagations;
    stats.theory_clauses += w.theory_clauses;
    stats.archive_comparisons += w.archive_comparisons;
    stats.replayed_clauses += w.replayed_clauses;
  }
  stats.archive_comparisons += shared.archive.comparisons();
  stats.complete = shared.complete.load(std::memory_order_acquire);
  // A contained crash is reported even when survivors proved the front
  // exact: `complete` certifies the mathematics, `reason` the operations.
  stats.reason = !result.worker_errors.empty() ? StopReason::WorkerFailure
                                               : budget->finish(stats.complete);

  if (certify) {
    const auto winner =
        std::find_if(result.workers.begin(), result.workers.end(),
                     [](const WorkerReport& w) { return w.proved_complete; });
    const bool proved = stats.complete && winner != result.workers.end() &&
                        result.worker_errors.empty();
    // The winner's stream is the completeness proof.  Without one, worker
    // 0's stream, honestly truncation-marked, still hands over a checkable
    // prefix.  Either stream is moved out of its log, never copied.
    if (!proved) logs[0]->truncation_marker();
    result.base.proof = logs[proved ? winner->worker : 0]->take_text();
    if (!result.worker_errors.empty()) {
      result.base.certificate_error =
          "worker " + std::to_string(result.worker_errors.front().worker) +
          " failed (" + result.worker_errors.front().message +
          "); a degraded run is never certified";
    } else if (!proved) {
      result.base.certificate_error =
          std::string("exploration stopped early (") +
          to_string(stats.reason) + "); nothing to certify";
    } else if (!options.shard.active) {
      // A shard-banded stream concludes Unsat under the shard's box
      // activations, not globally, so it goes up unjudged: the coordinator
      // certifies all bands at once.  Here the run is the one unbounded
      // band; its stream moves into the band and back, never copied.
      std::vector<std::pair<pareto::Vec, synth::Implementation>> pairs(
          shared.witnesses.begin(), shared.witnesses.end());
      cert::ShardProof band{.proof = std::move(result.base.proof)};
      const cert::CertifyResult cr = cert::certify(
          spec, pairs, result.base.front, {&band, 1}, 0);
      result.base.proof = std::move(band.proof);
      result.base.certified = cr.certified;
      if (!cr.certified) result.base.certificate_error = cr.error;
    }
  }

  if (ckpt_writer != nullptr) {
    const Checkpoint c = shared.snapshot();
    const std::string err = ckpt_writer->write(c);
    if (orec != nullptr) {
      orec->record(obs::EventKind::CheckpointWrite,
                   static_cast<std::int64_t>(c.points.size()),
                   err.empty() ? 1 : 0);
    }
    if (!err.empty()) result.base.errors.push_back(err);
  }
  stats.seconds = shared.timer.elapsed_seconds();

  if (orec != nullptr) {
    orec->record(obs::EventKind::RunEnd,
                 static_cast<std::int64_t>(result.base.front.size()),
                 static_cast<std::int64_t>(stats.models),
                 stats.complete ? 1 : 0);
  }
  if (collector != nullptr) collector->stop();

  if (common.metrics != nullptr) {
    export_metrics(*common.metrics, result.base);
    // Per-worker breakdown: conflict totals plus each worker's share of the
    // portfolio's conflicts — the load-balance view of the run.
    for (const WorkerReport& w : result.workers) {
      const std::string prefix = "worker." + std::to_string(w.worker);
      common.metrics->counter(prefix + ".conflicts").set(w.conflicts);
      common.metrics->counter(prefix + ".models").set(w.models);
      common.metrics->counter(prefix + ".shared_inserts").set(w.shared_inserts);
      common.metrics->gauge(prefix + ".conflict_share")
          .set(stats.conflicts == 0
                   ? 0.0
                   : static_cast<double>(w.conflicts) /
                         static_cast<double>(stats.conflicts));
    }
  }
  return result;
}

}  // namespace detail

ParallelExploreResult explore_parallel(const synth::Specification& spec,
                                       const ParallelExploreOptions& options) {
  return detail::run_portfolio(spec, options, {});
}

}  // namespace aspmt::dse
