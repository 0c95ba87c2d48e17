// aspmt.hpp — the supported public surface of the library, in one include.
//
//   #include <aspmt.hpp>   (installed under include/aspmt/)
//
// Everything re-exported here is API: covered by tests, documented in
// DESIGN.md, and kept stable across releases.  Headers NOT listed here
// (solver internals, theory propagators, encoder plumbing, pareto archive
// implementations, …) are internal — include them at your own risk; see
// DESIGN.md §11 "Public surface" for the authoritative list.
#pragma once

// -- Problem input ----------------------------------------------------------
// synth::Specification — the system-synthesis problem: tasks, resources,
// mapping options, routing, objective coefficients.
#include "synth/spec.hpp"
// synth::load_specification / save_specification / to_text — the text format
// round-trip used by the CLI, the generator and the checkpointing layer.
#include "synth/specio.hpp"
// synth::validate_implementation — independent feasibility re-check of a
// witness against its specification.
#include "synth/validator.hpp"
// gen::generate — reproducible random specification families (shared bus,
// 2x2/3x3 mesh) for benchmarks and fuzzing.
#include "gen/generator.hpp"

// -- Exploration ------------------------------------------------------------
// dse::CommonOptions — the option block shared by both explorers (budget,
// archive kind, checkpointing, certification, observability hooks).
#include "dse/options.hpp"
// dse::explore — the sequential exact explorer (ExploreOptions adds the
// epsilon-dominance knob); dse::enumerate_witnesses; dse::export_metrics.
#include "dse/explorer.hpp"
// dse::explore_parallel — the parallel portfolio (ParallelExploreOptions
// adds threads/seed/shards; the result embeds an ExploreResult as .base).
#include "dse/parallel_explorer.hpp"
// dse::generate_warm_seeds / WarmStartOptions — the hybrid heuristic–exact
// pipeline: validated heuristic seeds enter the archive before the search
// (DESIGN.md §12).
#include "dse/warmstart.hpp"
// dse::Budget / BudgetLimits / StopReason — resource ceilings and the
// async-signal-safe cancellation token.
#include "dse/budget.hpp"
// dse::Checkpoint / save_checkpoint / load_checkpoint — crash-safe periodic
// snapshots and warm restarts.
#include "dse/checkpoint.hpp"
// dse::reexplore / classify_checkpoint / spec_sections — incremental
// re-exploration on spec deltas: per-section digests, delta classification,
// archive + guarded-clause reuse (DESIGN.md §13).
#include "dse/respec.hpp"
// dse::explore_distributed / shard_objective_space — multi-process
// cube-and-conquer over objective-space bands with a certified merged
// front (DESIGN.md §14).
#include "dse/distributed.hpp"

// -- Service ----------------------------------------------------------------
// dse::Session — one exploration job as a unit of supervision: per-attempt
// budgets, sticky cancellation, checkpoint auto-resume.
#include "dse/session.hpp"
// dse::RetryPolicy / RetrySupervisor — capped exponential backoff with
// deterministic jitter and a per-key circuit breaker (DESIGN.md §15).
#include "dse/supervise.hpp"
// serve::Server / ServerOptions — the exploration service core: admission
// control, overload shedding, crash-safe job journal, graceful drain.
#include "serve/server.hpp"
// serve::SocketEndpoint / serve::Client — the unix-socket transport and its
// blocking client (line-delimited JSON; grammar in DESIGN.md §15).
#include "serve/endpoint.hpp"
#include "serve/client.hpp"

// -- Certification ----------------------------------------------------------
// cert::certify — replay a run's proof streams (one per band; one for a
// single-process run) and witness set through the independent checker;
// exit code of record for certified runs.
#include "cert/certify.hpp"

// -- Observability ----------------------------------------------------------
// obs::Event / EventKind — the typed event taxonomy (DESIGN.md §11).
#include "obs/events.hpp"
// obs::EventSink / MultiSink — where collected events go; implement this to
// build custom exporters.
#include "obs/sink.hpp"
// obs::MetricsRegistry — named counters / gauges / histograms with a JSON
// snapshot (CommonOptions::metrics).
#include "obs/metrics.hpp"
// obs::NdjsonExporter / ChromeTraceExporter / ProgressMeter — stock sinks:
// event log, Perfetto-loadable trace, live status line.
#include "obs/exporters.hpp"
