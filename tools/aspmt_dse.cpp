// aspmt_dse — command line front-end.
//
//   aspmt_dse generate --tasks 8 --arch mesh2x2 [--seed 1] [--options 2] -o spec.txt
//   aspmt_dse explore  spec.txt [--time-limit 60] [--archive quadtree|linear]
//                      [--no-partial-eval] [--epsilon L,E,C] [--witnesses]
//   aspmt_dse optimize spec.txt --objective latency|energy|cost
//   aspmt_dse baseline spec.txt --method enum|lex|lex-cold [--time-limit 60]
//   aspmt_dse nsga2    spec.txt [--pop 40] [--gens 60] [--seed 1]
//   aspmt_dse validate spec.txt
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fstream>

#include <unistd.h>

#include "dse/baselines.hpp"
#include "dse/budget.hpp"
#include "dse/checkpoint.hpp"
#include "dse/context.hpp"
#include "dse/distributed.hpp"
#include "dse/explorer.hpp"
#include "dse/optimizer.hpp"
#include "dse/parallel_explorer.hpp"
#include "dse/respec.hpp"
#include "dse/warmstart.hpp"
#include "ea/nsga2.hpp"
#include "gen/generator.hpp"
#include "gen/multicore.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "synth/specio.hpp"
#include "synth/validator.hpp"
#include "util/table.hpp"

#include "args.hpp"

namespace {

using namespace aspmt;

using cli::Args;

/// The budget of the currently running exploration, visible to the signal
/// handlers.  Budget::interrupt() is async-signal-safe (atomics only).
dse::Budget* g_budget = nullptr;

extern "C" void handle_stop_signal(int) {
  dse::Budget* b = g_budget;
  if (b != nullptr) b->interrupt();
}

/// Installs SIGINT/SIGTERM handlers that trip the run's cancellation token
/// — the first Ctrl-C degrades to an orderly partial-front shutdown — and
/// restores the default disposition on scope exit, so a second Ctrl-C after
/// the run still kills a wedged process.
struct SignalGuard {
  explicit SignalGuard(dse::Budget* budget) {
    g_budget = budget;
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
  }
  ~SignalGuard() {
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_budget = nullptr;
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;
};

/// Removed flags are hard errors that name themselves and what replaced
/// them: the pre-redesign output-file spellings (now --<thing>-out) and the
/// in-process shard backend (shards run in worker processes only).  Returns
/// "" when none was given.
std::string removed_flag_error(const Args& args) {
  static const std::pair<const char*, const char*> kRemoved[] = {
      {"proof", "use --proof-out"},
      {"checkpoint", "use --checkpoint-out"},
      {"shards-in-process", "shards always run in worker processes"},
  };
  for (const auto& [old_name, replacement] : kRemoved) {
    if (args.flag(old_name)) {
      return std::string("--") + old_name + " was removed; " + replacement;
    }
  }
  return "";
}

int usage() {
  std::cerr <<
      "usage:\n"
      "  aspmt_dse generate --tasks N --arch bus|mesh2x2|mesh3x3 [--seed S]\n"
      "            [--options K] [--bus-procs P] -o spec.txt\n"
      "  aspmt_dse generate --family multicore --tasks N [--seed S]\n"
      "            [--big B] [--little L] [--depths D] [--caches C]\n"
      "            [--options K] [--throttle-factor F]\n"
      "            [--axes 'EXPR;EXPR;...']  Pareto axes, e.g.\n"
      "                'lex(latency,energy);cost' (default) or\n"
      "                'minmax(latency,cost);worst(energy,energy@throttle)'\n"
      "  aspmt_dse explore  spec.txt [--time-limit SEC] [--archive KIND]\n"
      "            [--no-partial-eval] [--epsilon L,E,C] [--witnesses]\n"
      "            [--threads N] [--seed S]   (N>1: parallel portfolio;\n"
      "                                  --epsilon runs one worker)\n"
      "            [--certify] [--proof-out FILE] [--front-out FILE]\n"
      "            [--conflict-budget N] [--mem-limit-mb MB]\n"
      "            [--checkpoint-out FILE] [--checkpoint-interval SEC]\n"
      "            [--resume FILE | --reexplore-from FILE]  restart from a\n"
      "                                  checkpoint, after a stop or a spec edit\n"
      "                                  (archive + clauses; exact and\n"
      "                                  certifiable)\n"
      "            [--warm-start nsga2|sampler|off] [--warm-start-budget N]\n"
      "            [--warm-start-seed S]  (heuristic seeds; still exact+certifiable)\n"
      "            [--trace-out FILE]    Chrome trace_event JSON (Perfetto)\n"
      "            [--events-out FILE]   NDJSON event log\n"
      "            [--metrics-out FILE]  metrics snapshot JSON\n"
      "            [--progress]          live status line on stderr\n"
      "            [--shard-workers M]   distributed: M worker processes (no\n"
      "                                  --epsilon, restart, warm start, conflict\n"
      "                                  or memory budget, or --checkpoint-out)\n"
      "            [--shards K]          objective-space bands (default M)\n"
      "            [--shard-objective I] banded objective (1=energy, 2=cost)\n"
      "            [--heartbeat-timeout SEC]  dead-worker requeue threshold\n"
      "  aspmt_dse optimize spec.txt --objective latency|energy|cost\n"
      "            [--warm-start nsga2|sampler|off] [--warm-start-budget N]\n"
      "  aspmt_dse baseline spec.txt --method enum|lex|lex-cold [--time-limit SEC]\n"
      "  aspmt_dse nsga2    spec.txt [--pop N] [--gens N] [--seed S]\n"
      "  aspmt_dse validate spec.txt\n"
      "  aspmt_dse witnesses spec.txt --point L,E,C [--limit N]\n";
  return 2;
}

synth::Specification load(const Args& args) {
  if (args.positional.empty()) throw synth::SpecParseError("missing spec file");
  return synth::load_specification(args.positional.front());
}

void write_generated(const Args& args, const synth::Specification& spec) {
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::cout << synth::to_text(spec);
  } else {
    synth::save_specification(spec, out);
    std::cout << "wrote " << out << " (" << gen::summarize(spec) << ")\n";
  }
}

int cmd_generate_multicore(const Args& args) {
  gen::MulticoreConfig c;
  c.seed = args.integer<std::uint64_t>("seed", 1);
  c.tasks = args.integer<std::uint32_t>("tasks", 6);
  c.layers = args.integer<std::uint32_t>("layers", 3);
  c.big_cores = args.integer<std::uint32_t>("big", 1);
  c.little_cores = args.integer<std::uint32_t>("little", 2);
  c.pipeline_depths = args.integer<std::uint32_t>("depths", 2);
  c.cache_levels = args.integer<std::uint32_t>("caches", 2);
  c.options_per_task = args.integer<std::uint32_t>("options", 0);
  c.throttle_factor = args.integer<std::int64_t>("throttle-factor", 3);
  const std::string axes = args.get("axes", "");
  for (std::size_t begin = 0; begin < axes.size();) {
    std::size_t end = axes.find(';', begin);
    if (end == std::string::npos) end = axes.size();
    if (end > begin) c.axes.push_back(axes.substr(begin, end - begin));
    begin = end + 1;
  }
  write_generated(args, gen::generate_multicore(c));
  return 0;
}

int cmd_generate(const Args& args) {
  const std::string family = args.get("family", "layered");
  if (family == "multicore") return cmd_generate_multicore(args);
  if (family != "layered") {
    std::cerr << "unknown generator family '" << family
              << "' (expected layered or multicore)\n";
    return 2;
  }
  gen::GeneratorConfig c;
  c.seed = args.integer<std::uint64_t>("seed", 1);
  c.tasks = args.integer<std::uint32_t>("tasks", 6);
  c.options_per_task = args.integer<std::uint32_t>("options", 2);
  c.bus_processors = args.integer<std::uint32_t>("bus-procs", 3);
  c.layers = args.integer<std::uint32_t>("layers", 3);
  const std::string arch = args.get("arch", "bus");
  if (arch == "bus") c.architecture = gen::Architecture::SharedBus;
  else if (arch == "mesh2x2") c.architecture = gen::Architecture::Mesh2x2;
  else if (arch == "mesh3x3") c.architecture = gen::Architecture::Mesh3x3;
  else {
    std::cerr << "unknown architecture '" << arch << "'\n";
    return 2;
  }
  write_generated(args, gen::generate(c));
  return 0;
}

/// A comma-separated integer vector flag (--epsilon, --point); nullopt when
/// the flag is absent or empty.
std::optional<pareto::Vec> parse_vector(const Args& args,
                                        const std::string& name) {
  const std::string text = args.get(name, "");
  if (text.empty()) return std::nullopt;
  pareto::Vec out;
  std::istringstream iss(text);
  std::string part;
  while (std::getline(iss, part, ',')) {
    if (!cli::parse_whole(part, out.emplace_back())) {
      throw cli::BadFlagValue("--" + name + " '" + text +
                              "': expected comma-separated integers");
    }
  }
  return out;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write '" << path << "'\n";
    return false;
  }
  out << text;
  return true;
}

/// One point per line, objectives space-separated — the .front golden format.
std::string front_to_text(const std::vector<pareto::Vec>& front) {
  std::ostringstream out;
  for (const pareto::Vec& p : front) {
    for (std::size_t i = 0; i < p.size(); ++i) out << (i ? " " : "") << p[i];
    out << "\n";
  }
  return out.str();
}

/// Shared post-run plumbing for --certify / --proof / --front-out.  Returns
/// the process exit code: certification failures trump the complete/timeout
/// distinction so scripted runs can trust exit 0 == certified.
int finish_explore(const Args& args, bool complete, bool certified,
                   const std::string& certificate_error,
                   const std::string& proof,
                   const std::vector<pareto::Vec>& front) {
  int rc = complete ? 0 : 3;
  if (args.flag("certify")) {
    if (certified) {
      std::cout << "certified: yes (witnesses validated, proof verified)\n";
    } else {
      std::cout << "certified: no (" << certificate_error << ")\n";
      rc = 4;
    }
  }
  const std::string proof_path = args.get("proof-out", "");
  if (!proof_path.empty()) {
    if (proof.empty()) {
      std::cerr << "no proof stream recorded (use --certify)\n";
      if (rc == 0) rc = 4;
    } else if (write_text_file(proof_path, proof)) {
      std::cout << "wrote proof to " << proof_path << " (" << proof.size()
                << " bytes)\n";
    } else {
      rc = 1;
    }
  }
  const std::string front_path = args.get("front-out", "");
  if (!front_path.empty()) {
    if (write_text_file(front_path, front_to_text(front))) {
      std::cout << "wrote front to " << front_path << "\n";
    } else {
      rc = 1;
    }
  }
  return rc;
}

/// Apply --warm-start / --warm-start-budget / --warm-start-seed.  Returns
/// false (after a stderr message) on an unknown method name.  The heuristic
/// RNG seed defaults to --seed so `--seed S` alone varies both halves.
bool apply_warm_start(const Args& args, dse::WarmStartOptions& warm) {
  const std::string method = args.get("warm-start", "off");
  const auto parsed = dse::parse_warm_start_method(method);
  if (!parsed) {
    std::cerr << "unknown --warm-start method '" << method
              << "' (expected nsga2|sampler|off)\n";
    return false;
  }
  warm.method = *parsed;
  warm.budget = args.integer<std::uint64_t>("warm-start-budget", warm.budget);
  warm.seed = args.integer<std::uint64_t>(
      "warm-start-seed", args.integer<std::uint64_t>("seed", 1));
  return true;
}

/// The exploration configuration from the command line, shared by every
/// explore mode and the shard worker.  Returns false (after a stderr
/// message) on an unknown --warm-start method.
bool explore_options(const Args& args, dse::ParallelExploreOptions& opts) {
  opts.threads = args.integer<std::size_t>("threads", 1);
  opts.seed = args.integer<std::uint64_t>("seed", 1);
  dse::CommonOptions& common = opts.common;
  common.time_limit_seconds = args.num("time-limit", 0.0);
  common.conflict_budget = args.integer<std::uint64_t>("conflict-budget", 0);
  common.mem_limit_mb = args.integer<std::size_t>("mem-limit-mb", 0);
  common.archive_kind = args.get("archive", "quadtree");
  common.partial_evaluation = !args.flag("no-partial-eval");
  common.certify = args.flag("certify");
  common.checkpoint_path = args.get("checkpoint-out", "");
  common.checkpoint_interval_seconds = args.num("checkpoint-interval", 30.0);
  return apply_warm_start(args, common.warm_start);
}

/// A mode never drops a flag silently: returns 2 (after naming the first of
/// `flags` given on the command line) when the mode cannot honour it, else
/// 0.
int reject_flags(const Args& args, std::initializer_list<const char*> flags,
                 const char* why) {
  for (const char* flag : flags) {
    if (!args.flag(flag)) continue;
    std::cerr << "error: --" << flag << ' ' << why << "\n";
    return 2;
  }
  return 0;
}

/// Print a front table with one column per Pareto axis, headed by the
/// spec's objective expressions (latency/energy/cost on classic specs).
void print_front(const synth::Specification& spec,
                 const std::vector<pareto::Vec>& front) {
  std::vector<std::string> headers;
  for (const synth::ObjectiveExpr& e : spec.effective_objectives()) {
    headers.push_back(synth::to_string(e));
  }
  util::Table table(std::move(headers));
  for (const pareto::Vec& p : front) {
    std::vector<std::string> row;
    row.reserve(p.size());
    for (const std::int64_t v : p) row.push_back(util::fmt(v));
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

void print_warm_stats(const dse::ExploreStats& stats) {
  if (stats.warm_seeds == 0 && stats.warm_rejected == 0) return;
  std::cout << "warm start: " << stats.warm_seeds << " seed(s) injected, "
            << stats.warm_rejected << " rejected\n";
}

void print_run_errors(const std::vector<std::string>& errors) {
  for (const std::string& e : errors) std::cerr << "warning: " << e << "\n";
}

/// Owns every observability endpoint the command line asked for (exporter
/// sinks, metrics registry, output streams) and wires them into the common
/// exploration options.  With no obs flag given, wire() leaves the options
/// untouched — the zero-observer path.
struct ObsSetup {
  std::ofstream trace_file;
  std::ofstream events_file;
  std::unique_ptr<obs::ChromeTraceExporter> chrome;
  std::unique_ptr<obs::NdjsonExporter> ndjson;
  std::unique_ptr<obs::ProgressMeter> progress;
  obs::MultiSink sink;
  obs::MetricsRegistry metrics;
  std::string metrics_path;

  /// Open every requested endpoint; returns false (with a stderr message)
  /// when an output file cannot be created.
  bool init(const Args& args) {
    const std::string trace_path = args.get("trace-out", "");
    if (!trace_path.empty()) {
      trace_file.open(trace_path);
      if (!trace_file) {
        std::cerr << "cannot write '" << trace_path << "'\n";
        return false;
      }
      chrome = std::make_unique<obs::ChromeTraceExporter>(trace_file);
      sink.add(chrome.get());
    }
    const std::string events_path = args.get("events-out", "");
    if (!events_path.empty()) {
      events_file.open(events_path);
      if (!events_file) {
        std::cerr << "cannot write '" << events_path << "'\n";
        return false;
      }
      ndjson = std::make_unique<obs::NdjsonExporter>(events_file);
      sink.add(ndjson.get());
    }
    if (args.flag("progress")) {
      progress = std::make_unique<obs::ProgressMeter>(std::cerr);
      sink.add(progress.get());
    }
    metrics_path = args.get("metrics-out", "");
    return true;
  }

  void wire(dse::CommonOptions& common) {
    if (!sink.empty()) common.sink = &sink;
    if (!metrics_path.empty()) common.metrics = &metrics;
  }

  /// Post-run: persist the metrics snapshot.  Returns 0, or 1 on I/O error.
  int finish() {
    if (metrics_path.empty()) return 0;
    if (!write_text_file(metrics_path, metrics.to_json() + "\n")) return 1;
    std::cout << "wrote metrics to " << metrics_path << "\n";
    return 0;
  }
};

/// --resume (after a stop) and --reexplore-from (after a spec edit) are one
/// restart, dse::reuse_checkpoint: the checkpoint is classified against the
/// spec and whatever is reusable re-enters through the certifiable
/// warm-start gate.  A missing or corrupted checkpoint is a cold start.
void apply_restart(const Args& args, const synth::Specification& spec,
                   dse::ParallelExploreOptions& opts) {
  const std::string path =
      args.get(args.flag("resume") ? "resume" : "reexplore-from", "");
  if (path.empty()) return;
  dse::Checkpoint prev;
  const std::string err = dse::load_checkpoint(path, prev);
  if (!err.empty()) {
    std::cerr << "cannot reuse " << path << ": " << err << "; starting cold\n";
    prev = dse::Checkpoint{};
  }
  const dse::ReuseStats reuse = dse::reuse_checkpoint(prev, spec, opts);
  std::cout << "delta: " << dse::delta_class_name(reuse.delta.cls)
            << " (archive " << reuse.archive_reused << "/"
            << reuse.archive_candidates << ", clauses "
            << reuse.clauses_replayed << "/" << reuse.clause_candidates
            << ", reuse rate "
            << util::fmt(reuse.reuse_rate(), 2)
            << (reuse.cold_start ? ", cold start" : "") << ")\n";
}

// ---- distributed exploration (dse/distributed.hpp) -------------------------

/// Serialized stdout writer for the shard-worker protocol: whole lines only,
/// one write() per message, so heartbeat and event lines never interleave.
std::mutex g_shard_out_mutex;

void shard_write(const std::string& text) {
  const std::lock_guard<std::mutex> lock(g_shard_out_mutex);
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(STDOUT_FILENO, text.data() + off,
                              text.size() - off);
    if (n <= 0) return;  // coordinator gone; nothing sensible left to do
    off += static_cast<std::size_t>(n);
  }
}

/// EventSink of the shard worker: forwards every archive insert up the
/// control pipe as a `PT` line.  Doubles as the crash-injection hook — with
/// --die-after-points N the worker hard-exits after the Nth streamed point,
/// simulating a mid-run worker death for the requeue tests.
class ShardPipeSink final : public obs::EventSink {
 public:
  explicit ShardPipeSink(std::uint64_t die_after_points)
      : die_after_(die_after_points) {}

  void on_event(const obs::Event& e) override {
    // Seeded points count as points: the PT stream mirrors everything that
    // entered the worker's archive, however it got there — which also makes
    // --die-after-points fire even on a shard whose band is fully covered
    // by the shared seed pool.
    if (e.kind != obs::EventKind::ArchiveInsert &&
        e.kind != obs::EventKind::WarmStartSeed) {
      return;
    }
    std::ostringstream line;
    line << "PT " << e.a << ' ' << e.b << ' ' << e.c << '\n';
    shard_write(line.str());
    if (die_after_ != 0 && ++points_ >= die_after_) _exit(9);
  }

 private:
  std::uint64_t die_after_;
  std::uint64_t points_ = 0;
};

/// `aspmt_dse shard-worker spec.txt --shard-lo=.. --shard-hi=..` — one shard
/// of a distributed run.  Speaks the wire format documented in
/// dse/distributed.hpp on stdout and exits 0 after the RESULT payload.
int cmd_shard_worker(const Args& args) {
  const synth::Specification spec = load(args);
  dse::ParallelExploreOptions opts;
  if (!explore_options(args, opts)) return 2;
  opts.shard.active = true;
  opts.shard.objective = args.integer<std::size_t>("shard-objective", 1);
  opts.shard.lo = args.integer<std::int64_t>(
      "shard-lo", std::numeric_limits<std::int64_t>::min());
  opts.shard.hi = args.integer<std::int64_t>(
      "shard-hi", std::numeric_limits<std::int64_t>::max());

  // The shared seed pool (the coordinator's split sample, so cross-band
  // dominance pruning survives the partition) and, on a requeue, the dead
  // predecessor's checkpoint.  Both are `aspmt-ckpt` files whose points
  // re-enter through the certifiable warm-start gate: each re-validates and
  // emits its F proof step, so a resumed shard certifies like a cold one.
  // No clause replay: no shard stream has ever been certified with a `G`
  // step.
  for (const char* flag : {"warm-seeds", "shard-resume"}) {
    const std::string path = args.get(flag, "");
    if (path.empty()) continue;
    dse::Checkpoint ckpt;
    const std::string err = dse::load_checkpoint(path, ckpt);
    if (!err.empty()) {
      std::cerr << "--" << flag << " rejected: " << err << "; ignoring it\n";
      continue;
    }
    std::vector<dse::WarmSeedCandidate> seeds = dse::checkpoint_seeds(ckpt, spec);
    opts.common.warm_start.external.insert(
        opts.common.warm_start.external.end(),
        std::make_move_iterator(seeds.begin()),
        std::make_move_iterator(seeds.end()));
  }

  ShardPipeSink sink(args.integer<std::uint64_t>("die-after-points", 0));
  opts.common.sink = &sink;

  shard_write("ASPMT-SHARD 1\n");
  const auto hb_ms = args.integer<std::uint64_t>("heartbeat-ms", 200);
  std::atomic<bool> stop{false};
  util::Timer up;
  std::thread heartbeat([&]() {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream line;
      line << "HB " << static_cast<long long>(up.elapsed_ms()) << '\n';
      shard_write(line.str());
      // Sleep in short slices so join() after a fast explore is immediate.
      for (std::uint64_t slept = 0; slept < hb_ms; slept += 10) {
        if (stop.load(std::memory_order_relaxed)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
  });

  const dse::ParallelExploreResult r = dse::explore_parallel(spec, opts);

  stop.store(true, std::memory_order_relaxed);
  heartbeat.join();
  // The heartbeat is joined and the run's collector stopped, so nothing
  // else writes between the header and the payload: two writes, no
  // concatenated copy of the proof.
  const std::string payload = dse::shard_result_to_text(r);
  shard_write("RESULT " + std::to_string(payload.size()) + "\n");
  shard_write(payload);
  return r.base.stats.complete ? 0 : 3;
}

int explore_sharded(const synth::Specification& spec, const Args& args) {
  if (const int rc = reject_flags(
          args,
          {"epsilon", "resume", "reexplore-from", "warm-start",
           "warm-start-budget", "warm-start-seed", "conflict-budget",
           "mem-limit-mb", "checkpoint-out", "checkpoint-interval"},
          "cannot be honoured with --shard-workers or --shards")) {
    return rc;
  }
  dse::DistributedOptions opts;
  if (!explore_options(args, opts.base)) return 2;
  opts.processes = args.integer<std::size_t>("shard-workers", 2);
  opts.shards = args.integer<std::size_t>("shards", 0);
  opts.shard_objective = args.integer<std::size_t>("shard-objective", 1);
  opts.heartbeat_timeout_seconds = args.num("heartbeat-timeout", 10.0);
  if (const std::string err =
          dse::shard_axis_error(spec, opts.shard_objective);
      !err.empty()) {
    std::cerr << "error: --shard-objective: " << err << "\n";
    return 2;
  }
  ObsSetup obs_setup;
  if (!obs_setup.init(args)) return 1;
  obs_setup.wire(opts.base.common);
  const dse::DistributedResult r = dse::explore_distributed(spec, opts);
  std::cout << "exact front: " << r.base.front.size() << " points ("
            << (r.base.stats.complete ? "complete" : "partial")
            << ", stopped: " << dse::to_string(r.base.stats.reason) << ", "
            << util::fmt(r.base.stats.seconds, 3) << "s, " << r.shards.size()
            << " shards x " << r.processes << " workers, "
            << r.base.stats.models << " models)\n";
  print_run_errors(r.base.errors);
  print_front(spec, r.base.front);
  std::cout << "\nper-shard breakdown:\n";
  util::Table shards({"shard", "band", "attempts", "resumed", "points",
                      "models", "sec", "complete"});
  for (const dse::ShardReport& s : r.shards) {
    const auto bound = [](std::int64_t v) {
      if (v == std::numeric_limits<std::int64_t>::min()) return std::string("-inf");
      if (v == std::numeric_limits<std::int64_t>::max()) return std::string("+inf");
      return std::to_string(v);
    };
    shards.add_row({util::fmt(static_cast<long long>(s.shard)),
                    "[" + bound(s.lo) + "," + bound(s.hi) + "]",
                    util::fmt(static_cast<long long>(s.attempts)),
                    s.resumed ? "yes" : "-",
                    util::fmt(static_cast<long long>(s.points)),
                    util::fmt(static_cast<long long>(s.models)),
                    util::fmt(s.seconds, 3), s.completed ? "yes" : "no"});
  }
  shards.print(std::cout);
  if (args.flag("witnesses")) {
    for (const auto& witness : r.base.witnesses) {
      std::cout << "\n" << witness.describe(spec);
    }
  }
  const int obs_rc = obs_setup.finish();
  const int rc =
      finish_explore(args, r.base.stats.complete, r.base.certified,
                     r.base.certificate_error, r.base.proof, r.base.front);
  return rc != 0 ? rc : obs_rc;
}

/// `explore`: sharded over worker processes with --shard-workers/--shards;
/// otherwise one process — dse::explore for an ε-approximate set (one
/// worker), dse::explore_parallel otherwise.
int cmd_explore(const Args& args) {
  const synth::Specification spec = load(args);
  if (args.flag("shard-workers") || args.flag("shards")) {
    return explore_sharded(spec, args);
  }
  if (const int rc = reject_flags(
          args, {"shard-objective", "heartbeat-timeout"},
          "needs --shard-workers or --shards")) {
    return rc;
  }
  dse::ParallelExploreOptions opts;
  if (!explore_options(args, opts)) return 2;
  const std::optional<pareto::Vec> epsilon = parse_vector(args, "epsilon");
  if (epsilon && opts.threads != 1) {
    std::cerr << "error: --epsilon runs one worker and cannot be honoured "
                 "with --threads "
              << opts.threads << "\n";
    return 2;
  }
  if (args.flag("resume") && args.flag("reexplore-from")) {
    std::cerr << "error: --resume and --reexplore-from are the same restart; "
                 "give one checkpoint\n";
    return 2;
  }
  dse::Budget budget(dse::BudgetLimits{opts.common.time_limit_seconds,
                                       opts.common.conflict_budget,
                                       opts.common.mem_limit_mb});
  opts.common.budget = &budget;
  ObsSetup obs_setup;
  if (!obs_setup.init(args)) return 1;
  obs_setup.wire(opts.common);
  apply_restart(args, spec, opts);
  const SignalGuard guard(&budget);
  dse::ParallelExploreResult r;
  if (epsilon) {
    r.base = dse::explore(spec, dse::ExploreOptions{opts.common, *epsilon});
  } else {
    r = dse::explore_parallel(spec, opts);
  }
  std::cout << (epsilon ? "eps-approximate set" : "exact front") << ": "
            << r.base.front.size() << " points ("
            << (r.base.stats.complete ? "complete" : "partial")
            << ", stopped: " << dse::to_string(r.base.stats.reason) << ", "
            << util::fmt(r.base.stats.seconds, 3) << "s, "
            << r.base.stats.models << " models, " << r.base.stats.prunings
            << " prunings)\n";
  print_warm_stats(r.base.stats);
  for (const dse::WorkerError& e : r.worker_errors) {
    std::cerr << "warning: worker " << e.worker << " failed: " << e.message
              << "\n";
  }
  print_run_errors(r.base.errors);
  print_front(spec, r.base.front);
  if (r.workers.size() > 1) {
    std::cout << "\nper-worker breakdown:\n";
    util::Table workers({"worker", "models", "inserts", "rejected",
                         "prunings", "conflicts", "restarts", "imported",
                         "sec", "proof"});
    for (const dse::WorkerReport& w : r.workers) {
      workers.add_row({util::fmt(static_cast<long long>(w.worker)),
                       util::fmt(static_cast<long long>(w.models)),
                       util::fmt(static_cast<long long>(w.shared_inserts)),
                       util::fmt(static_cast<long long>(w.rejected_inserts)),
                       util::fmt(static_cast<long long>(w.prunings)),
                       util::fmt(static_cast<long long>(w.conflicts)),
                       util::fmt(static_cast<long long>(w.restarts)),
                       util::fmt(static_cast<long long>(w.clauses_imported)),
                       util::fmt(w.seconds, 3),
                       w.proved_complete ? "yes" : "-"});
    }
    workers.print(std::cout);
  }
  if (args.flag("witnesses")) {
    for (const auto& witness : r.base.witnesses) {
      std::cout << "\n" << witness.describe(spec);
    }
  }
  const int obs_rc = obs_setup.finish();
  const int rc =
      finish_explore(args, r.base.stats.complete, r.base.certified,
                     r.base.certificate_error, r.base.proof, r.base.front);
  return rc != 0 ? rc : obs_rc;
}

int cmd_optimize(const Args& args) {
  const synth::Specification spec = load(args);
  const std::string objective = args.get("objective", "latency");
  dse::SynthContext ctx(spec);
  std::size_t index = ctx.objectives.count();
  for (std::size_t i = 0; i < ctx.objectives.count(); ++i) {
    if (ctx.objectives.name(i) == objective) index = i;
  }
  if (index == ctx.objectives.count()) {
    std::cerr << "unknown objective '" << objective << "'\n";
    return 2;
  }
  dse::WarmStartOptions warm;
  if (!apply_warm_start(args, warm)) return 2;
  std::int64_t upper = dse::kNoUpperBound;
  if (dse::warm_start_enabled(warm)) {
    const dse::WarmStartResult ws = dse::generate_warm_seeds(spec, warm);
    for (const dse::WarmSeedCandidate& s : ws.seeds) {
      upper = std::min(upper, s.point[index]);
    }
    if (upper != dse::kNoUpperBound) {
      std::cout << "warm start: " << ws.seeds.size()
                << " validated seed(s), descending from " << objective
                << " <= " << upper << "\n";
    }
  }
  const util::Deadline deadline(args.num("time-limit", 0.0));
  std::vector<asp::Lit> assumptions;
  const dse::MinimizeResult r =
      dse::minimize_objective(ctx, index, assumptions, &deadline, upper);
  if (!r.feasible) {
    std::cout << "infeasible" << (r.proven ? " (proven)" : " (timeout)") << "\n";
    return r.proven ? 0 : 3;
  }
  std::cout << "min " << objective << " = " << r.best
            << (r.proven ? " (proven optimal)" : " (best found, timeout)") << "\n";
  return r.proven ? 0 : 3;
}

int cmd_baseline(const Args& args) {
  const synth::Specification spec = load(args);
  const std::string method = args.get("method", "lex");
  const double limit = args.num("time-limit", 0.0);
  dse::BaselineResult r;
  if (method == "enum") r = dse::enumerate_and_filter(spec, limit);
  else if (method == "lex") r = dse::lexicographic_epsilon(spec, limit);
  else if (method == "lex-cold") r = dse::lexicographic_epsilon_cold(spec, limit);
  else {
    std::cerr << "unknown method '" << method << "'\n";
    return 2;
  }
  std::cout << method << ": " << r.front.size() << " points ("
            << (r.complete ? "complete" : "time-limited") << ", "
            << util::fmt(r.seconds, 3) << "s, " << r.models << " models)\n";
  for (const auto& p : r.front) std::cout << pareto::to_string(p) << "\n";
  return r.complete ? 0 : 3;
}

int cmd_nsga2(const Args& args) {
  const synth::Specification spec = load(args);
  ea::Nsga2Options opts;
  opts.population = args.integer<std::size_t>("pop", 40);
  opts.generations = args.integer<std::size_t>("gens", 60);
  opts.seed = args.integer<std::uint64_t>("seed", 1);
  const ea::Nsga2Result r = ea::nsga2(spec, opts);
  std::cout << "nsga2: " << r.front.size() << " points (" << r.evaluations
            << " evaluations, " << util::fmt(r.seconds, 3) << "s)\n";
  for (const auto& p : r.front) std::cout << pareto::to_string(p) << "\n";
  return 0;
}

int cmd_witnesses(const Args& args) {
  const synth::Specification spec = load(args);
  const std::optional<pareto::Vec> point = parse_vector(args, "point");
  if (!point) {
    std::cerr << "missing --point L,E,C\n";
    return 2;
  }
  const auto limit = args.integer<std::size_t>("limit", 50);
  const dse::WitnessEnumeration w =
      dse::enumerate_witnesses(spec, *point, limit, args.num("time-limit", 0.0));
  std::cout << w.implementations.size() << " implementation(s) at "
            << pareto::to_string(*point)
            << (w.complete ? "" : " (truncated)") << "\n";
  for (const auto& impl : w.implementations) {
    std::cout << "\n" << impl.describe(spec) << impl.describe_schedule(spec);
  }
  return 0;
}

int cmd_validate(const Args& args) {
  const synth::Specification spec = load(args);
  const std::string err = spec.validate();
  if (err.empty()) {
    std::cout << "ok: " << gen::summarize(spec) << "\n";
    return 0;
  }
  std::cout << "invalid: " << err << "\n";
  return 1;
}

/// Every subcommand with the flags it reads.  shard-worker reads exactly
/// what dse::explore_distributed passes its workers.
const std::vector<cli::Command>& commands() {
  static const std::vector<cli::Command> kCommands = {
      {"generate",
       {"family", "seed", "tasks", "layers", "options", "out", "arch",
        "bus-procs", "big", "little", "depths", "caches", "throttle-factor",
        "axes"},
       cmd_generate},
      {"explore",
       {"threads", "seed", "time-limit", "conflict-budget", "mem-limit-mb",
        "archive", "no-partial-eval", "certify", "checkpoint-out",
        "checkpoint-interval", "warm-start", "warm-start-budget",
        "warm-start-seed", "epsilon", "resume", "reexplore-from",
        "shard-workers", "shards", "shard-objective", "heartbeat-timeout",
        "trace-out", "events-out", "metrics-out", "progress", "witnesses",
        "proof-out", "front-out"},
       cmd_explore},
      {"optimize",
       {"objective", "warm-start", "warm-start-budget", "warm-start-seed",
        "seed", "time-limit"},
       cmd_optimize},
      {"baseline", {"method", "time-limit"}, cmd_baseline},
      {"nsga2", {"pop", "gens", "seed"}, cmd_nsga2},
      {"validate", {}, cmd_validate},
      {"witnesses", {"point", "limit", "time-limit"}, cmd_witnesses},
      {"shard-worker",
       {"shard-lo", "shard-hi", "shard-objective", "threads", "seed",
        "heartbeat-ms", "archive", "no-partial-eval", "certify", "time-limit",
        "checkpoint-out", "checkpoint-interval", "warm-seeds", "shard-resume",
        "die-after-points"},
       cmd_shard_worker},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // A removed subcommand is a hard error, like a removed flag, and reads
  // nothing.
  if (command == "asp") {
    std::cerr << "error: the asp subcommand was removed; the explorer builds "
                 "its ground programs directly (solve other ASP programs "
                 "with clingo)\n";
    return 2;
  }
  const Args args = cli::parse_args(argc, argv);
  if (const std::string removed = removed_flag_error(args); !removed.empty()) {
    std::cerr << "error: " << removed << "\n";
    return 2;
  }
  const auto it = std::find_if(
      commands().begin(), commands().end(),
      [&](const cli::Command& c) { return c.name == command; });
  if (it == commands().end()) return usage();
  // Before any file is read: an unread flag would drop its effect silently,
  // and a misspelt --certify would run uncertified and exit 0.
  if (const std::string flag = cli::unread_flag(args, *it); !flag.empty()) {
    std::cerr << "error: unknown flag " << flag << " for " << command << "\n";
    return 2;
  }
  try {
    return it->run(args);
  } catch (const cli::BadFlagValue& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
