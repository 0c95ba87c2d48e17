#include "dse/distributed.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dse/checkpoint.hpp"
#include "dse/warmstart.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "synth/specio.hpp"
#include "util/text.hpp"
#include "util/timer.hpp"

namespace aspmt::dse {

namespace {

using util::parse_number;
using util::take_line;
using util::take_token;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Coordinator-side event emission.  The coordinator owns the sink for the
/// whole distributed run (shard workers run sink-less) and emits from its
/// one thread, which upholds the sink's single-caller contract.
struct ShardEvents {
  obs::EventSink* sink = nullptr;
  util::Timer epoch;

  void emit(obs::EventKind kind, std::int64_t a, std::int64_t b,
            std::int64_t c) {
    if (sink == nullptr) return;
    obs::Event e;
    e.kind = kind;
    e.t_ns = static_cast<std::uint64_t>(epoch.elapsed_seconds() * 1e9);
    e.a = a;
    e.b = b;
    e.c = c;
    e.worker = 0;
    sink->on_event(e);
  }
};

/// What one shard ultimately delivered: its RESULT payload, whether that
/// payload arrived intact, and why not when it did not.
struct ShardOutcome {
  ShardResultPayload result;
  bool delivered = false;
  std::string error;
};

/// "" when every discovery and front point of `p` has `axes` entries; the
/// merge compares points axis by axis and never checks their length.
std::string check_point_lengths(const ShardResultPayload& p, std::size_t axes) {
  const auto mismatch = [&](const pareto::Vec& v) {
    return "point " + pareto::to_string(v) + " has " +
           std::to_string(v.size()) + " objectives, the specification has " +
           std::to_string(axes) + " axes";
  };
  for (const auto& [point, impl] : p.discoveries) {
    if (point.size() != axes) return mismatch(point);
  }
  for (const pareto::Vec& point : p.front) {
    if (point.size() != axes) return mismatch(point);
  }
  return {};
}

std::string resolve_worker_path(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("ASPMT_DSE_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return "aspmt_dse";
}

// ---- worker-process plumbing -----------------------------------------------

struct WorkerProc {
  pid_t pid = -1;
  int fd = -1;           ///< read end of the worker's stdout pipe
  std::size_t slot = 0;  ///< index into the shard table
  std::size_t attempt = 1;
  std::string linebuf;
  std::string result;          ///< RESULT payload accumulator
  std::size_t result_need = 0; ///< payload bytes still expected
  bool in_result = false;
  bool result_done = false;
  bool eof = false;
  bool reaped = false;
  int status = 0;
  double last_activity = 0.0;  ///< coordinator-epoch seconds
  std::uint64_t points = 0;    ///< PT lines received
};

/// fork/exec one shard worker with its stdout on a fresh pipe.  Returns ""
/// on success, a diagnostic otherwise.
std::string spawn_worker(const std::string& binary,
                         const std::vector<std::string>& args, WorkerProc& p) {
  int fds[2];
  if (::pipe(fds) != 0) return "pipe() failed";
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return "fork() failed";
  }
  if (pid == 0) {
    ::close(fds[0]);
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.reserve(args.size() + 2);
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(binary.c_str(), argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
  p.pid = pid;
  p.fd = fds[0];
  return {};
}

}  // namespace

std::vector<Shard> shard_objective_space(const synth::Specification& spec,
                                         std::size_t shards,
                                         std::size_t objective,
                                         std::uint64_t sample_budget,
                                         std::uint64_t seed,
                                         std::vector<WarmSeedCandidate>* seeds_out,
                                         WarmStartMethod method) {
  std::vector<Shard> result;
  const std::size_t want = std::max<std::size_t>(1, shards);
  if (want == 1) {
    result.push_back(Shard{0, kMin, kMax});
    return result;
  }

  // Heuristic warm pass: every probe is a validated feasible design point, so
  // the quantiles reflect where feasible mass actually sits.
  WarmStartOptions warm;
  warm.method = method == WarmStartMethod::Off ? WarmStartMethod::Sampler : method;
  warm.budget = std::max<std::uint64_t>(sample_budget, 4 * want);
  warm.seed = seed;
  WarmStartResult sample = generate_warm_seeds(spec, warm);

  std::vector<std::int64_t> values;
  values.reserve(sample.seeds.size());
  for (const WarmSeedCandidate& s : sample.seeds) {
    if (objective < s.point.size()) values.push_back(s.point[objective]);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());

  // Splits at the sample quantiles.  Fewer distinct values than shards
  // degrade gracefully to fewer shards; a collapsed sample yields one
  // unbounded shard.
  std::vector<std::int64_t> splits;
  if (values.size() >= 2) {
    for (std::size_t j = 1; j < want; ++j) {
      const std::size_t idx =
          std::min(values.size() - 1, j * values.size() / want);
      const std::int64_t split = values[idx == 0 ? 0 : idx - 1];
      if (splits.empty() || split > splits.back()) splits.push_back(split);
    }
  }

  std::int64_t lo = kMin;
  for (std::size_t j = 0; j < splits.size(); ++j) {
    result.push_back(Shard{j, lo, splits[j]});
    lo = splits[j] + 1;
  }
  result.push_back(Shard{splits.size(), lo, kMax});
  if (seeds_out != nullptr) *seeds_out = std::move(sample.seeds);
  return result;
}

std::string shard_result_to_text(const ParallelExploreResult& r) {
  std::ostringstream out;
  out << "complete " << (r.base.stats.complete ? 1 : 0) << "\n";
  out << "models " << r.base.stats.models << "\n";
  out << "seconds " << r.base.stats.seconds << "\n";
  out << "discoveries " << r.discovery_witnesses.size() << "\n";
  for (const auto& [point, impl] : r.discovery_witnesses) {
    out << "d";
    for (const std::int64_t v : point) out << ' ' << v;
    out << "\n";
    out << "w " << witness_to_text(impl) << "\n";
  }
  out << "front " << r.base.front.size() << "\n";
  for (const pareto::Vec& p : r.base.front) {
    out << "f";
    for (const std::int64_t v : p) out << ' ' << v;
    out << "\n";
  }
  out << "proof " << r.base.proof.size() << "\n";
  // The proof, by far the largest part, is copied once: appended to the
  // stream's moved-out buffer, not streamed and then copied out again.
  std::string text = std::move(out).str();
  text.reserve(text.size() + r.base.proof.size() + 4);
  text += r.base.proof;
  text += "end\n";
  return text;
}

std::string parse_shard_result(std::string_view text, ShardResultPayload& out) {
  out = ShardResultPayload{};
  std::string_view rest = text;

  auto expect_count = [&](std::string_view keyword,
                          std::int64_t& n) -> std::string {
    std::string_view line = take_line(rest);
    if (take_token(line) != keyword) {
      return "expected '" + std::string(keyword) + "' line";
    }
    if (!parse_number(take_token(line), n) || n < 0) {
      return "malformed '" + std::string(keyword) + "' count";
    }
    return {};
  };

  std::int64_t n = 0;
  std::string err = expect_count("complete", n);
  if (!err.empty()) return err;
  out.complete = n != 0;
  err = expect_count("models", n);
  if (!err.empty()) return err;
  out.models = static_cast<std::uint64_t>(n);
  {
    std::string_view line = take_line(rest);
    if (take_token(line) != "seconds") return "expected 'seconds' line";
    out.seconds = std::atof(std::string(take_token(line)).c_str());
  }
  err = expect_count("discoveries", n);
  if (!err.empty()) return err;
  for (std::int64_t i = 0; i < n; ++i) {
    std::string_view line = take_line(rest);
    if (take_token(line) != "d") return "expected 'd' line";
    pareto::Vec point;
    while (!line.empty()) {
      std::int64_t v = 0;
      if (!parse_number(take_token(line), v)) {
        return "malformed discovery point";
      }
      point.push_back(v);
    }
    std::string_view wline = take_line(rest);
    if (take_token(wline) != "w") return "expected 'w' line";
    synth::Implementation impl;
    const std::string werr = witness_from_text(wline, impl);
    if (!werr.empty()) return "bad witness: " + werr;
    out.discoveries.emplace_back(std::move(point), std::move(impl));
  }
  err = expect_count("front", n);
  if (!err.empty()) return err;
  for (std::int64_t i = 0; i < n; ++i) {
    std::string_view line = take_line(rest);
    if (take_token(line) != "f") return "expected 'f' line";
    pareto::Vec point;
    while (!line.empty()) {
      std::int64_t v = 0;
      if (!parse_number(take_token(line), v)) return "malformed front point";
      point.push_back(v);
    }
    out.front.push_back(std::move(point));
  }
  err = expect_count("proof", n);
  if (!err.empty()) return err;
  if (static_cast<std::size_t>(n) > rest.size()) return "truncated proof bytes";
  out.proof.assign(rest.substr(0, static_cast<std::size_t>(n)));
  rest.remove_prefix(static_cast<std::size_t>(n));
  if (take_line(rest) != "end") return "missing 'end' trailer";
  return {};
}

DistributedResult explore_distributed(const synth::Specification& spec,
                                      const DistributedOptions& options) {
  // Refused here rather than by every shard worker's encoder, which would
  // turn one invalid input into a failed shard per band.
  spec.require_valid();
  if (std::string err = shard_axis_error(spec, options.shard_objective);
      !err.empty()) {
    throw std::invalid_argument(std::move(err));
  }

  DistributedResult result;
  util::Timer total;
  const std::size_t processes = std::max<std::size_t>(1, options.processes);

  // The split sample doubles as the shared seed pool: every shard starts
  // with the same globally-validated points, so cross-band dominance pruning
  // survives the partition (see shard_objective_space).
  std::vector<WarmSeedCandidate> seeds;
  std::vector<Shard> shards = shard_objective_space(
      spec, options.shards != 0 ? options.shards : processes,
      options.shard_objective, options.split_sample_budget, options.base.seed,
      &seeds, options.split_method);
  result.processes = std::min(processes, shards.size());

  ShardEvents events;
  events.sink = options.base.common.sink;

  std::vector<ShardOutcome> outcomes(shards.size());
  std::vector<std::size_t> attempts(shards.size(), 0);
  std::vector<char> resumed(shards.size(), 0);

  // Work queue of shard indices; a requeued shard rejoins it.
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < shards.size(); ++i) queue.push_back(i);

  // Requeue supervision: per-shard failure ledger plus the backoff gate a
  // requeued shard must wait out before relaunch.
  RetrySupervisor requeue_supervisor(options.retry, options.base.seed);
  std::vector<double> ready_at(shards.size(), 0.0);

  events.emit(obs::EventKind::RunStart,
              static_cast<std::int64_t>(
                  options.base.common.time_limit_seconds * 1e3),
              static_cast<std::int64_t>(result.processes),
              static_cast<std::int64_t>(options.base.common.conflict_budget));

  // ---- fork/exec shard workers over pipes ---------------------------------
  namespace fs = std::filesystem;
  std::string dir = options.work_dir;
  bool made_dir = false;
  if (dir.empty()) {
    std::string tmpl = (fs::temp_directory_path() / "aspmt-dse-XXXXXX").string();
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      result.base.errors.push_back("cannot create scratch directory");
      return result;
    }
    dir.assign(buf.data());
    made_dir = true;
  }
  const std::string spec_path = dir + "/spec.txt";
  synth::save_specification(spec, spec_path);
  // The seed pool travels as a checkpoint (seeds are a sorted antichain),
  // which the worker reads back with checkpoint_seeds.  No fsync: the
  // file lives only as long as the scratch directory.
  std::string seeds_path;
  if (!seeds.empty()) {
    Checkpoint pool;
    pool.spec_fingerprint = spec_fingerprint(spec);
    pool.has_sections = true;
    pool.sections = spec_sections(spec);
    for (const WarmSeedCandidate& seed : seeds) {
      pool.points.push_back(seed.point);
      pool.witnesses.push_back(seed.impl);
    }
    seeds_path = dir + "/seeds.ckpt";
    std::ofstream out(seeds_path);
    if (!(out << to_text(pool))) seeds_path.clear();
  }
  const std::string binary = resolve_worker_path(options.worker_path);
  const double hb_timeout = std::max(0.5, options.heartbeat_timeout_seconds);
  const long hb_ms = std::max<long>(
      50, std::min<long>(1000, static_cast<long>(hb_timeout * 1e3 / 4)));

  auto ckpt_path = [&](std::size_t idx) {
    return dir + "/shard" + std::to_string(idx) + ".ckpt";
  };

  auto launch = [&](std::size_t idx, std::vector<WorkerProc>& procs) {
    const Shard& shard = shards[idx];
    ++attempts[idx];
    std::vector<std::string> args;
    args.emplace_back("shard-worker");
    args.push_back(spec_path);
    if (shard.lo != kMin) {
      args.push_back("--shard-lo=" + std::to_string(shard.lo));
    }
    if (shard.hi != kMax) {
      args.push_back("--shard-hi=" + std::to_string(shard.hi));
    }
    args.emplace_back("--shard-objective");
    args.push_back(std::to_string(options.shard_objective));
    args.emplace_back("--threads");
    args.push_back(std::to_string(std::max<std::size_t>(1, options.base.threads)));
    args.emplace_back("--seed");
    args.push_back(std::to_string(options.base.seed));
    args.emplace_back("--heartbeat-ms");
    args.push_back(std::to_string(hb_ms));
    args.emplace_back("--archive");
    args.push_back(options.base.common.archive_kind);
    if (!options.base.common.partial_evaluation) {
      args.emplace_back("--no-partial-eval");
    }
    if (options.base.common.certify) args.emplace_back("--certify");
    if (options.base.common.time_limit_seconds > 0.0) {
      args.emplace_back("--time-limit");
      args.push_back(std::to_string(options.base.common.time_limit_seconds));
    }
    args.emplace_back("--checkpoint-out");
    args.push_back(ckpt_path(idx));
    args.emplace_back("--checkpoint-interval");
    args.emplace_back("0");
    if (!seeds_path.empty()) {
      args.emplace_back("--warm-seeds");
      args.push_back(seeds_path);
    }
    if (attempts[idx] > 1 && fs::exists(ckpt_path(idx))) {
      args.emplace_back("--shard-resume");
      args.push_back(ckpt_path(idx));
      resumed[idx] = 1;
    }
    if (options.sabotage_shard >= 0 &&
        static_cast<std::size_t>(options.sabotage_shard) == shard.id &&
        attempts[idx] == 1) {
      args.emplace_back("--die-after-points");
      args.push_back(std::to_string(options.sabotage_after_points));
    }
    WorkerProc p;
    p.slot = idx;
    p.attempt = attempts[idx];
    p.last_activity = events.epoch.elapsed_seconds();
    const std::string err = spawn_worker(binary, args, p);
    if (!err.empty()) {
      outcomes[idx].error = err;
      return;
    }
    procs.push_back(std::move(p));
    events.emit(obs::EventKind::ShardSpawn,
                static_cast<std::int64_t>(shard.id), shard.lo, shard.hi);
  };

  auto handle_line = [&](WorkerProc& p, std::string_view line) {
    p.last_activity = events.epoch.elapsed_seconds();
    std::string_view rest = line;
    const std::string_view head = take_token(rest);
    if (head == "HB") {
      std::int64_t ms = 0;
      parse_number(take_token(rest), ms);
      events.emit(obs::EventKind::ShardHeartbeat,
                  static_cast<std::int64_t>(shards[p.slot].id), ms,
                  static_cast<std::int64_t>(p.points));
    } else if (head == "PT") {
      std::int64_t a = 0, b = 0, c = 0;
      parse_number(take_token(rest), a);
      parse_number(take_token(rest), b);
      parse_number(take_token(rest), c);
      ++p.points;
      events.emit(obs::EventKind::ShardPoint, a, b, c);
    } else if (head == "RESULT") {
      std::int64_t n = 0;
      if (parse_number(take_token(rest), n) && n >= 0) {
        p.in_result = true;
        p.result_need = static_cast<std::size_t>(n);
        p.result.reserve(p.result_need);
        if (p.result_need == 0) p.result_done = true;
      }
    }
    // "ASPMT-SHARD 1" and unknown lines: activity only.
  };

  auto consume = [&](WorkerProc& p, const char* data, std::size_t n) {
    std::size_t off = 0;
    while (off < n) {
      if (p.in_result && !p.result_done) {
        const std::size_t take = std::min(n - off, p.result_need);
        p.result.append(data + off, take);
        p.result_need -= take;
        off += take;
        p.last_activity = events.epoch.elapsed_seconds();
        if (p.result_need == 0) p.result_done = true;
        continue;
      }
      const char* nl = static_cast<const char*>(
          std::memchr(data + off, '\n', n - off));
      if (nl == nullptr) {
        p.linebuf.append(data + off, n - off);
        break;
      }
      p.linebuf.append(data + off, static_cast<std::size_t>(nl - (data + off)));
      off = static_cast<std::size_t>(nl - data) + 1;
      handle_line(p, p.linebuf);
      p.linebuf.clear();
    }
  };

  std::vector<WorkerProc> procs;
  while (!queue.empty() || !procs.empty()) {
    // Launch every ready shard (backoff gate elapsed), skipping ones
    // still waiting theirs out.
    const double launch_now = events.epoch.elapsed_seconds();
    for (std::size_t qi = 0;
         procs.size() < processes && qi < queue.size();) {
      const std::size_t idx = queue[qi];
      if (ready_at[idx] > launch_now) {
        ++qi;
        continue;
      }
      queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(qi));
      launch(idx, procs);
    }
    if (procs.empty()) {
      if (queue.empty()) break;
      // Every queued shard is backing off; sleep toward the nearest gate.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }

    std::vector<pollfd> pfds;
    pfds.reserve(procs.size());
    for (const WorkerProc& p : procs) {
      pfds.push_back(pollfd{p.fd, POLLIN, 0});
    }
    ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 50);

    char buf[65536];
    for (std::size_t i = 0; i < procs.size(); ++i) {
      WorkerProc& p = procs[i];
      if (p.eof ||
          (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      for (;;) {
        const ssize_t n = ::read(p.fd, buf, sizeof(buf));
        if (n > 0) {
          consume(p, buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          p.eof = true;  // EOF or hard error — the stream is over
          ::close(p.fd);
          p.fd = -1;
        }
        break;
      }
    }

    const double now = events.epoch.elapsed_seconds();
    for (WorkerProc& p : procs) {
      if (!p.eof && !p.result_done && now - p.last_activity > hb_timeout) {
        ::kill(p.pid, SIGKILL);
        p.last_activity = now;  // one kill per timeout trip
      }
      if (!p.reaped) {
        int status = 0;
        if (::waitpid(p.pid, &status, WNOHANG) == p.pid) {
          p.reaped = true;
          p.status = status;
        }
      }
    }

    // Finalize workers whose pipe drained and whose process was reaped.
    for (std::size_t i = 0; i < procs.size();) {
      WorkerProc& p = procs[i];
      if (!p.eof || !p.reaped) {
        ++i;
        continue;
      }
      const std::size_t idx = p.slot;
      ShardOutcome& out = outcomes[idx];
      if (p.result_done) {
        ShardResultPayload payload;
        std::string err = parse_shard_result(p.result, payload);
        if (err.empty()) err = check_point_lengths(payload, spec.axis_count());
        if (err.empty()) {
          out.result = std::move(payload);
          out.delivered = true;
        } else {
          out.error = "bad shard result: " + err;
        }
      } else if (out.error.empty()) {
        out.error =
            WIFSIGNALED(p.status)
                ? "worker killed by signal " +
                      std::to_string(WTERMSIG(p.status))
                : "worker exited " + std::to_string(WEXITSTATUS(p.status)) +
                      " without a result";
      }
      events.emit(obs::EventKind::ShardExit,
                  static_cast<std::int64_t>(shards[idx].id),
                  out.delivered ? 1 : 0, static_cast<std::int64_t>(p.attempt));
      if (!out.delivered) {
        // Supervised requeue onto the survivors: capped attempts with a
        // jittered backoff gate, resuming from the dead worker's
        // checkpoint when one was written.  Past the cap the circuit
        // opens and the shard stays failed (its error is already in
        // `out`) rather than churning the pool.
        const auto decision =
            requeue_supervisor.on_failure(shards[idx].id);
        if (decision.retry) {
          const bool have_ckpt = fs::exists(ckpt_path(idx));
          events.emit(obs::EventKind::ShardRequeue,
                      static_cast<std::int64_t>(shards[idx].id),
                      static_cast<std::int64_t>(attempts[idx] + 1),
                      have_ckpt ? 1 : 0);
          out = ShardOutcome{};
          ready_at[idx] =
              events.epoch.elapsed_seconds() + decision.delay_seconds;
          queue.push_back(idx);
        }
      }
      procs.erase(procs.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }

  if (made_dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);  // best-effort scratch cleanup
  }

  // ---- merge ---------------------------------------------------------------
  bool all_complete = true;
  bool any_failed = false;
  std::map<pareto::Vec, synth::Implementation> witness_by_point;
  std::vector<std::pair<pareto::Vec, synth::Implementation>> union_discoveries;
  std::vector<pareto::Vec> union_front;
  std::uint64_t total_models = 0;

  result.shards.reserve(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const Shard& shard = shards[i];
    const ShardOutcome& out = outcomes[i];
    const ShardResultPayload& r = out.result;
    ShardReport report;
    report.shard = shard.id;
    report.lo = shard.lo;
    report.hi = shard.hi;
    report.attempts = attempts[i];
    report.resumed = resumed[i] != 0;
    report.completed = out.delivered && r.complete;
    report.seconds = r.seconds;
    report.models = r.models;
    report.points = r.discoveries.size();
    report.error = out.error;
    result.shards.push_back(report);

    if (!out.delivered) {
      any_failed = true;
      all_complete = false;
      result.base.errors.push_back(
          "shard " + std::to_string(shard.id) + " failed: " +
          (out.error.empty() ? "no result" : out.error));
      continue;
    }
    if (!r.complete) all_complete = false;
    total_models += r.models;
    union_front.insert(union_front.end(), r.front.begin(), r.front.end());
    for (const auto& [point, impl] : r.discoveries) {
      if (witness_by_point.emplace(point, impl).second) {
        union_discoveries.emplace_back(point, impl);
      }
    }
  }

  result.base.front = pareto::non_dominated_filter(std::move(union_front));
  result.base.witnesses.reserve(result.base.front.size());
  for (const pareto::Vec& p : result.base.front) {
    const auto it = witness_by_point.find(p);
    if (it == witness_by_point.end()) {
      result.base.witnesses.emplace_back();
      result.base.errors.push_back("missing witness for " +
                                   pareto::to_string(p));
    } else {
      result.base.witnesses.push_back(it->second);
    }
  }
  result.base.stats.models = total_models;
  result.base.stats.seconds = total.elapsed_seconds();
  result.base.stats.complete = all_complete;
  result.base.stats.reason = all_complete ? StopReason::Completed
                             : any_failed ? StopReason::WorkerFailure
                                          : StopReason::Deadline;

  // ---- certified merge -----------------------------------------------------
  if (options.base.common.certify) {
    // Each shard's stream moves into its band: nothing reads
    // outcomes[i].result.proof after this.
    std::vector<cert::ShardProof> proofs;
    proofs.reserve(shards.size());
    bool have_proofs = all_complete;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (outcomes[i].result.proof.empty()) {
        have_proofs = false;
        break;
      }
      proofs.push_back(cert::ShardProof{shards[i].lo, shards[i].hi,
                                        std::move(outcomes[i].result.proof)});
    }
    if (have_proofs) {
      result.base.proof =
          cert::merged_proof_to_text(options.shard_objective, proofs);
      result.merged = cert::certify(spec, union_discoveries,
                                    result.base.front, proofs,
                                    options.shard_objective);
      result.base.certified = result.merged.certified;
      result.base.certificate_error = result.merged.error;
    } else {
      result.base.certified = false;
      result.base.certificate_error =
          all_complete ? "a shard delivered no proof stream"
                       : "not every shard proved its band exhausted";
      result.merged.error = result.base.certificate_error;
    }
  }

  events.emit(obs::EventKind::RunEnd,
              static_cast<std::int64_t>(result.base.front.size()),
              static_cast<std::int64_t>(total_models), all_complete ? 1 : 0);
  if (events.sink != nullptr) events.sink->flush();

  // ---- metrics -------------------------------------------------------------
  if (obs::MetricsRegistry* reg = options.base.common.metrics;
      reg != nullptr) {
    reg->counter("distributed.shards").set(shards.size());
    reg->counter("distributed.processes").set(result.processes);
    reg->counter("distributed.models").set(total_models);
    std::uint64_t requeues = 0;
    std::uint64_t launches = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      if (attempts[i] > 1) requeues += attempts[i] - 1;
      launches += attempts[i];
      reg->gauge("distributed.shard" + std::to_string(shards[i].id) +
                 ".seconds")
          .set(outcomes[i].result.seconds);
    }
    reg->counter("distributed.requeues").set(requeues);
    // Total launches including first attempts — requeues tells how often
    // workers died, requeue_attempts how much launch work the run cost.
    reg->counter("distributed.requeue_attempts").set(launches);
    reg->gauge("distributed.wall_seconds").set(result.base.stats.seconds);
  }

  return result;
}

}  // namespace aspmt::dse
