// perfbench — end-to-end benchmark program: wall time to an exact (and, in
// the certified workload, machine-checked) Pareto front.
//
//   perfbench --workload ladder|certified|parallel4|multicore|selftest
//             --seed N --seconds S --trace 0|1
//             --refs DIR --work DIR --out DIR
//             [--instance-seed K] [--git-rev R] [--source-digest D]
//   perfbench --make-refs --refs DIR --work DIR [--instance NAME]...
//
// A run is a closed loop: passes over the workload's jobs, one job after
// the next from this one process, for about --seconds.  Every job calls a
// public entry point (dse::explore, dse::explore_parallel,
// dse::explore_distributed) and its front is compared byte for byte with the
// stored reference.  The last line on stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1.
//
// --seed fixes the job order of every pass; the instances themselves are the
// Table-2 / bench instances (--instance-seed 0) so every seed measures the
// same work.  --instance-seed K > 0 generates hold-out instances of the same
// shape, checked against references verified at start-up the way the stored
// ones were (verified_reference).
//
// --trace 1 runs every job twice per pass, untraced and traced.  The traced
// copy wraps every call into a library module in a span (trace.hpp) and
// makes the extra layer calls the per-layer metrics need; the untraced copy
// is the baseline for trace.overhead_share.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "cert/checker.hpp"
#include "dse/baselines.hpp"
#include "dse/context.hpp"
#include "dse/distributed.hpp"
#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "jobs.hpp"
#include "pareto/archive.hpp"
#include "synth/specio.hpp"
#include "synth/validator.hpp"
#include "trace.hpp"

namespace {

namespace fs = std::filesystem;
using namespace aspmt;
using perfbench::Instance;
using perfbench::Job;
using perfbench::Mode;
using perfbench::Tracer;
using perfbench::Workload;

/// Per-job time limit; the ROADMAP's certified-run limit.  A job that hits
/// it stops incomplete and counts as failed.
constexpr double kJobTimeLimit = 40.0;
/// Set-up repetitions before the first timed call (see run()).
constexpr int kSetupRepeats = 5;
/// Proof-lemma tags the census reports (asp/proof.cpp spellings).
const std::vector<std::string> kLemmaTags = {"DOM", "DB", "DC", "LS",
                                             "LL",  "UF", "CB"};
const std::vector<std::string> kMulticoreAxes = {"lex", "minmax", "weighted",
                                                 "leaf4"};
const std::vector<std::string> kPortfolioInstances = {"S06", "S09", "busT10"};
const std::vector<std::string> kLayers = {"bench", "gen", "synth", "dse",
                                          "ea",    "cert", "pareto"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string refs;
  std::string work;
  std::string out;
  std::uint64_t instance_seed = 0;
  std::string git_rev = "unknown";
  std::string source_digest = "unknown";
  bool make_refs = false;
  std::vector<std::string> instances;  // --make-refs filter
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
               " --refs DIR --work DIR --out DIR [--instance-seed K]"
               " [--git-rev R] [--source-digest D]\n"
               "       perfbench --make-refs --refs DIR --work DIR"
               " [--instance NAME]...\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--make-refs") {
      o.make_refs = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") o.workload = v;
      else if (a == "--seed") o.seed = std::stoull(v);
      else if (a == "--seconds") o.seconds = std::stod(v);
      else if (a == "--trace") o.trace = std::stoi(v) != 0;
      else if (a == "--refs") o.refs = v;
      else if (a == "--work") o.work = v;
      else if (a == "--out") o.out = v;
      else if (a == "--instance-seed") o.instance_seed = std::stoull(v);
      else if (a == "--git-rev") o.git_rev = v;
      else if (a == "--source-digest") o.source_digest = v;
      else if (a == "--instance") o.instances.push_back(v);
      else usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (o.refs.empty() || o.work.empty()) usage("--refs and --work are required");
  if (!o.make_refs && (o.workload.empty() || o.out.empty())) {
    usage("--workload and --out are required");
  }
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

// ---- process accounting ----------------------------------------------------

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

/// User + system CPU seconds of this process and its reaped children (the
/// shard workers of explore_distributed).
double cpu_seconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return seconds_of(self.ru_utime) + seconds_of(self.ru_stime) +
         seconds_of(children.ru_utime) + seconds_of(children.ru_stime);
}

/// The larger of this process's peak RSS and its largest child's, in MiB.
double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string host_json(const Options& o) {
  std::ostringstream s;
  s << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu_model\": " << json_string(cpu_model())
    << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
    << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
    << ", \"git_rev\": " << json_string(o.git_rev)
    << ", \"source_digest\": " << json_string(o.source_digest)
    << ", \"workload\": " << json_string(o.workload)
    << ", \"seed\": " << o.seed << ", \"instance_seed\": " << o.instance_seed
    << ", \"time_limit_s\": " << json_number(kJobTimeLimit)
    << ", \"seconds\": " << json_number(o.seconds)
    << ", \"trace\": " << (o.trace ? 1 : 0) << "}";
  return s.str();
}

std::string worker_binary() {
  const fs::path self = fs::read_symlink("/proc/self/exe");
  return (self.parent_path() / "aspmt_dse").string();
}

// ---- references ------------------------------------------------------------

struct Reference {
  std::string text;    ///< front_to_text of the verified front
  std::string method;  ///< how it was verified
  double seconds = 0.0;
};

/// Compute `spec`'s front and verify it once, by the strongest check that
/// finishes: a certified run within kJobTimeLimit, else agreement with
/// dse::lexicographic_epsilon (a different algorithm), else agreement of
/// the 1-thread and 4-thread portfolio runs.  Throws when none succeeds.
Reference verified_reference(const synth::Specification& spec) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  {
    dse::ExploreOptions o;
    o.common.certify = true;
    o.common.time_limit_seconds = kJobTimeLimit;
    const dse::ExploreResult r = dse::explore(spec, o);
    if (r.stats.complete && r.certified) {
      return {perfbench::front_to_text(r.front), "certified explore", elapsed()};
    }
  }
  dse::ExploreOptions o;
  o.common.time_limit_seconds = 3 * kJobTimeLimit;
  const dse::ExploreResult r = dse::explore(spec, o);
  if (!r.stats.complete) throw std::runtime_error("explore did not complete");
  const std::string text = perfbench::front_to_text(r.front);
  const dse::BaselineResult lex = dse::lexicographic_epsilon(spec, 3 * kJobTimeLimit);
  if (lex.complete) {
    if (perfbench::front_to_text(lex.front) != text) {
      throw std::runtime_error("explore and lexicographic_epsilon disagree");
    }
    return {text, "explore == lexicographic_epsilon", elapsed()};
  }
  for (const std::size_t threads : {1U, 4U}) {
    dse::ParallelExploreOptions p;
    p.threads = threads;
    p.common.time_limit_seconds = 3 * kJobTimeLimit;
    const dse::ParallelExploreResult pr = dse::explore_parallel(spec, p);
    if (!pr.base.stats.complete || perfbench::front_to_text(pr.base.front) != text) {
      throw std::runtime_error("no verification method agreed");
    }
  }
  return {text, "explore == portfolio t1 == portfolio t4", elapsed()};
}

int make_refs(const Options& o) {
  fs::create_directories(o.refs);
  std::set<std::string> names(o.instances.begin(), o.instances.end());
  if (names.empty()) {
    for (const std::string& w : perfbench::workload_names()) {
      for (const Job& j : perfbench::find_workload(w).jobs) names.insert(j.instance);
    }
  }
  std::cout << "| instance | points | verified by | seconds |\n|---|---|---|---|\n";
  for (const std::string& name : names) {
    const synth::Specification spec =
        perfbench::generate(perfbench::find_instance(name, 0));
    const Reference ref = verified_reference(spec);
    write_file(o.refs + "/" + name + ".front", ref.text);
    char seconds[32];
    std::snprintf(seconds, sizeof seconds, "%.2f", ref.seconds);
    std::cout << "| " << name << " | "
              << std::count(ref.text.begin(), ref.text.end(), '\n') << " | "
              << ref.method << " | " << seconds << " |\n"
              << std::flush;
  }
  return 0;
}

// ---- set-up ----------------------------------------------------------------

struct Prepared {
  std::map<std::string, Instance> instances;
  std::map<std::string, synth::Specification> specs;
  std::map<std::string, std::string> refs;  ///< reference front text
};

/// Generate every instance of the workload from its seed, round-trip it
/// through the text format, and load the reference fronts.
Prepared set_up(const Workload& w, const Options& o) {
  Prepared p;
  for (const Job& j : w.jobs) {
    if (p.specs.count(j.instance) != 0) continue;
    const Instance in = perfbench::find_instance(j.instance, o.instance_seed);
    const std::string text = synth::to_text(perfbench::generate(in));
    const std::string path = o.work + "/" + j.instance + ".spec";
    write_file(path, text);
    synth::Specification spec = synth::load_specification(path);
    if (synth::to_text(spec) != text) {
      throw std::runtime_error("text round-trip changed instance " + j.instance);
    }
    p.instances.emplace(j.instance, in);
    p.specs.emplace(j.instance, std::move(spec));
    if (o.instance_seed == 0) {
      p.refs.emplace(j.instance, read_file(o.refs + "/" + j.instance + ".front"));
    }
  }
  return p;
}

// ---- one job ---------------------------------------------------------------

/// Raw per-layer sums of one pass's traced jobs; derive_layers() turns them into
/// the reported per-layer metrics.
using Sums = std::map<std::string, double>;

struct Outcome {
  double wall_s = 0.0;  ///< the timed explore call
  double cpu_s = 0.0;   ///< process + reaped children, same interval
  std::string failure;  ///< empty when the job succeeded
};

void census(std::string_view proof, Sums& sums) {
  sums["cert.proof_mib"] += static_cast<double>(proof.size()) / (1024.0 * 1024.0);
  while (!proof.empty()) {
    const std::size_t nl = proof.find('\n');
    const std::string_view line = proof.substr(0, nl);
    proof = nl == std::string_view::npos ? std::string_view{} : proof.substr(nl + 1);
    if (line.size() < 2 || line[1] != ' ') continue;
    if (line[0] == 'L') {
      sums["cert.learnt"] += 1;
    } else if (line[0] == 'D') {
      sums["cert.deleted"] += 1;
    } else if (line[0] == 'T') {
      const std::string_view rest = line.substr(2);
      sums["cert.lemmas." + std::string(rest.substr(0, rest.find(' ')))] += 1;
    }
  }
}

/// Layer calls and counters shared by every mode in a traced job:
/// witness validation and the archive replay of the discovery sequence.
void trace_result(const Job& job, std::int64_t id, const synth::Specification& spec,
                  const dse::ExploreResult& r, double wall, Tracer* tracer,
                  Sums& sums, std::string& failure) {
  const dse::ExploreStats& st = r.stats;
  sums["asp.conflicts"] += static_cast<double>(st.conflicts);
  sums["asp.decisions"] += static_cast<double>(st.decisions);
  sums["asp.propagations"] += static_cast<double>(st.propagations);
  sums["theory.lemmas"] += static_cast<double>(st.theory_clauses);
  sums["dse.models"] += static_cast<double>(st.models);
  sums["dse.prunings"] += static_cast<double>(st.prunings);
  sums["dse.front_points"] += static_cast<double>(r.front.size());
  sums["dse.explore_s"] += wall;
  if (!job.axes.empty()) {
    sums["multicore." + job.axes + ".wall_s"] += wall;
    sums["multicore." + job.axes + ".models"] += static_cast<double>(st.models);
    sums["multicore." + job.axes + ".prunings"] += static_cast<double>(st.prunings);
  }
  {
    Tracer::Scope s(tracer, "synth::validate_implementation", "synth", id);
    for (const synth::Implementation& impl : r.witnesses) {
      const std::string why = synth::validate_implementation(spec, impl);
      if (!why.empty() && failure.empty()) failure = "witness invalid: " + why;
    }
    sums["synth.validate_s"] += s.elapsed_seconds();
  }
  {
    Tracer::Scope s(tracer, "pareto::QuadTreeArchive replay", "pareto", id);
    const auto archive = pareto::make_archive("quadtree", spec.axis_count());
    for (const auto& [when, point] : r.discoveries) archive->insert(point);
    sums["pareto.replay_s"] += s.elapsed_seconds();
    sums["pareto.inserts"] += static_cast<double>(r.discoveries.size());
    sums["pareto.comparisons"] += static_cast<double>(archive->comparisons());
  }
}

Outcome run_job(const Job& job, std::int64_t id, const Prepared& prep,
                const Options& o, Tracer* tracer, Sums* sums) {
  const synth::Specification& spec = prep.specs.at(job.instance);
  Outcome out;
  Tracer::Scope root(tracer, job.name, "bench", id);
  std::vector<pareto::Vec> front;
  bool complete = false;
  const double cpu0 = cpu_seconds();
  switch (job.mode) {
    case Mode::Explore:
    case Mode::Certified: {
      dse::ExploreOptions opts;
      opts.common.time_limit_seconds = kJobTimeLimit;
      opts.common.certify = job.mode == Mode::Certified;
      dse::ExploreResult r;
      {
        Tracer::Scope s(tracer, "dse::explore", "dse", id);
        r = dse::explore(spec, opts);
        out.wall_s = s.elapsed_seconds();
      }
      out.cpu_s = cpu_seconds() - cpu0;
      complete = r.stats.complete;
      front = r.front;
      if (job.mode == Mode::Certified && !r.certified) {
        out.failure = "not certified: " + r.certificate_error;
      }
      if (tracer == nullptr) break;
      Sums& sm = *sums;
      if (job.mode == Mode::Certified) {
        cert::CheckOptions copts;
        copts.require_global_unsat = true;
        copts.trust_feasible_steps = false;
        for (const auto& [when, point] : r.discoveries) copts.feasible_points.push_back(point);
        Tracer::Scope s(tracer, "cert::check_proof", "cert", id);
        const cert::CheckResult cr = cert::check_proof(r.proof, copts);
        const double check_s = s.elapsed_seconds();
        if (!cr.ok && out.failure.empty()) out.failure = "checker rejected: " + cr.error;
        sm["cert.check_s"] += check_s;
        sm["cert.search_s"] += out.wall_s - check_s;
        census(r.proof, sm);
      }
      trace_result(job, id, spec, r, out.wall_s, tracer, sm, out.failure);
      break;
    }
    case Mode::Portfolio: {
      dse::ParallelExploreOptions opts;
      opts.threads = job.threads;
      opts.common.time_limit_seconds = kJobTimeLimit;
      dse::ParallelExploreResult r;
      {
        Tracer::Scope s(tracer, "dse::explore_parallel", "dse", id);
        r = dse::explore_parallel(spec, opts);
        out.wall_s = s.elapsed_seconds();
      }
      out.cpu_s = cpu_seconds() - cpu0;
      complete = r.base.stats.complete;
      front = r.base.front;
      if (tracer == nullptr) break;
      Sums& sm = *sums;
      trace_result(job, id, spec, r.base, out.wall_s, tracer, sm, out.failure);
      double conflicts = 0.0;
      for (const dse::WorkerReport& w : r.workers) {
        conflicts += static_cast<double>(w.conflicts);
        sm["portfolio.rejected_inserts"] += static_cast<double>(w.rejected_inserts);
        sm["portfolio.slices_claimed"] += static_cast<double>(w.slices_claimed);
      }
      // The 1-thread partner run: speedup and work inflation per instance.
      dse::ParallelExploreOptions one = opts;
      one.threads = 1;
      dse::ParallelExploreResult r1;
      double t1 = 0.0;
      {
        Tracer::Scope s(tracer, "dse::explore_parallel t1", "dse", id);
        r1 = dse::explore_parallel(spec, one);
        t1 = s.elapsed_seconds();
      }
      if (!r1.base.stats.complete ||
          perfbench::front_to_text(r1.base.front) != prep.refs.at(job.instance)) {
        if (out.failure.empty()) out.failure = "1-thread partner run differs";
      }
      sm["portfolio.t4_conflicts"] += conflicts;
      sm["portfolio.t1_conflicts"] += static_cast<double>(r1.base.stats.conflicts);
      sm["portfolio.log_speedup_sum"] += std::log(t1 / out.wall_s);
      sm["portfolio.instances"] += 1;
      sm["portfolio.speedup." + job.instance] = t1 / out.wall_s;
      break;
    }
    case Mode::Distributed: {
      dse::DistributedOptions opts;
      opts.processes = job.processes;
      opts.base.threads = job.threads;
      opts.base.common.time_limit_seconds = kJobTimeLimit;
      opts.worker_path = worker_binary();
      opts.work_dir = o.work + "/dist-" + std::to_string(id);
      fs::create_directories(opts.work_dir);
      dse::DistributedResult r;
      {
        Tracer::Scope s(tracer, "dse::explore_distributed", "dse", id);
        r = dse::explore_distributed(spec, opts);
        out.wall_s = s.elapsed_seconds();
      }
      out.cpu_s = cpu_seconds() - cpu0;
      std::error_code ec;
      fs::remove_all(opts.work_dir, ec);
      complete = r.base.stats.complete;
      front = r.base.front;
      if (!r.base.errors.empty()) out.failure = r.base.errors.front();
      if (tracer == nullptr) break;
      Sums& sm = *sums;
      trace_result(job, id, spec, r.base, out.wall_s, tracer, sm, out.failure);
      {
        // The coordinator's split call, repeated with its arguments.
        Tracer::Scope s(tracer, "dse::shard_objective_space", "ea", id);
        const auto bands = dse::shard_objective_space(
            spec, opts.processes, opts.shard_objective, opts.split_sample_budget,
            opts.base.seed, nullptr, opts.split_method);
        sm["dist.split_s"] += s.elapsed_seconds();
        if (bands.empty() && out.failure.empty()) out.failure = "empty split";
      }
      double max_s = 0.0;
      double sum_s = 0.0;
      double points = 0.0;
      for (const dse::ShardReport& sh : r.shards) {
        max_s = std::max(max_s, sh.seconds);
        sum_s += sh.seconds;
        points += static_cast<double>(sh.points);
        sm["dist.requeues"] += static_cast<double>(sh.attempts > 0 ? sh.attempts - 1 : 0);
      }
      if (!r.shards.empty() && sum_s > 0.0) {
        sm["dist.shard_imbalance"] += max_s / (sum_s / static_cast<double>(r.shards.size()));
      }
      if (!r.base.front.empty()) {
        sm["dist.points_per_front_point"] +=
            points / static_cast<double>(r.base.front.size());
      }
      break;
    }
  }
  if (tracer != nullptr) {
    // The generation and encoding layers, timed after the explore call so
    // the explore call starts from the same process state as its untraced
    // twin.
    (*sums)["trace.explore_s"] += out.wall_s;
    {
      Tracer::Scope s(tracer, "gen::generate", "gen", id);
      [[maybe_unused]] const synth::Specification again =
          perfbench::generate(prep.instances.at(job.instance));
    }
    Tracer::Scope s(tracer, "dse::SynthContext", "synth", id);
    dse::ContextOptions copts;
    copts.objective_floors = job.mode != Mode::Certified;
    const dse::SynthContext ctx(spec, copts);
    (*sums)["synth.encode_s"] += s.elapsed_seconds();
    (*sums)["synth.vars"] += static_cast<double>(ctx.solver.num_vars());
    (*sums)["synth.clauses"] += static_cast<double>(ctx.solver.num_problem_clauses());
  }
  if (!complete) {
    out.failure = "incomplete (time limit " + json_number(kJobTimeLimit) + " s)";
  } else if (out.failure.empty() &&
             perfbench::front_to_text(front) != prep.refs.at(job.instance)) {
    out.failure = "front differs from the reference of " + job.instance;
  }
  return out;
}

// ---- per-layer metrics -----------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Reported per-layer metrics of one pass's traced jobs.  A layer idle on the
/// workload reports 0.
std::vector<Metric> derive_layers(Sums s, const std::map<std::string, double>& self) {
  std::vector<Metric> m;
  auto add = [&](const std::string& name, const std::string& unit, double v) {
    m.push_back({name, unit, v});
  };
  for (const std::string& layer : kLayers) {
    const auto it = self.find(layer);
    add(layer + ".self_s", "s", it == self.end() ? 0.0 : it->second);
  }
  add("synth.encode_s", "s", s["synth.encode_s"]);
  add("synth.vars", "count", s["synth.vars"]);
  add("synth.clauses", "count", s["synth.clauses"]);
  add("synth.validate_s", "s", s["synth.validate_s"]);
  add("asp.conflicts", "count", s["asp.conflicts"]);
  add("asp.decisions", "count", s["asp.decisions"]);
  add("asp.propagations", "count", s["asp.propagations"]);
  add("asp.props_per_s", "1/s", ratio(s["asp.propagations"], s["dse.explore_s"]));
  add("theory.lemmas", "count", s["theory.lemmas"]);
  add("dse.models", "count", s["dse.models"]);
  add("dse.prunings", "count", s["dse.prunings"]);
  add("dse.prunings_per_model", "ratio", ratio(s["dse.prunings"], s["dse.models"]));
  add("dse.front_per_model", "ratio", ratio(s["dse.front_points"], s["dse.models"]));
  for (const std::string& a : kMulticoreAxes) {
    const std::string p = "multicore." + a;
    add(p + ".wall_s", "s", s[p + ".wall_s"]);
    add(p + ".prunings_per_model", "ratio", ratio(s[p + ".prunings"], s[p + ".models"]));
  }
  add("pareto.comparisons", "count", s["pareto.comparisons"]);
  add("pareto.insert_us", "us", 1e6 * ratio(s["pareto.replay_s"], s["pareto.inserts"]));
  add("portfolio.speedup", "ratio",
      s["portfolio.instances"] > 0.0
          ? std::exp(s["portfolio.log_speedup_sum"] / s["portfolio.instances"])
          : 0.0);
  for (const std::string& inst : kPortfolioInstances) {
    add("portfolio.speedup." + inst, "ratio", s["portfolio.speedup." + inst]);
  }
  add("portfolio.work_inflation", "ratio",
      ratio(s["portfolio.t4_conflicts"], s["portfolio.t1_conflicts"]));
  add("portfolio.rejected_inserts", "count", s["portfolio.rejected_inserts"]);
  add("portfolio.slices_claimed", "count", s["portfolio.slices_claimed"]);
  add("dist.split_s", "s", s["dist.split_s"]);
  add("dist.shard_imbalance", "ratio", s["dist.shard_imbalance"]);
  add("dist.points_per_front_point", "ratio", s["dist.points_per_front_point"]);
  add("dist.requeues", "count", s["dist.requeues"]);
  add("cert.check_s", "s", s["cert.check_s"]);
  add("cert.search_s", "s", s["cert.search_s"]);
  add("cert.proof_mib", "MiB", s["cert.proof_mib"]);
  for (const std::string& tag : kLemmaTags) {
    add("cert.lemmas." + tag, "count", s["cert.lemmas." + tag]);
  }
  add("cert.learnt", "count", s["cert.learnt"]);
  add("cert.deleted", "count", s["cert.deleted"]);
  return m;
}

// ---- the run ---------------------------------------------------------------

struct JobSamples {
  std::vector<double> wall;
  std::vector<double> cpu;
};

int run(const Options& o) {
  const Workload w = perfbench::find_workload(o.workload);
  const std::string host = host_json(o);
  std::cout << "host " << host << "\n" << std::flush;

  // Set-up takes about a millisecond, so one sample is a snapshot of the
  // host's speed at that instant.  setup_s is therefore the median over
  // kSetupRepeats repetitions before the first timed call plus one after
  // every job, spread over the run like the jobs' own samples.  Every
  // repetition does the full work; the jobs use the first one's result.
  fs::create_directories(o.work);
  fs::create_directories(o.out);
  std::vector<double> setup_samples;
  auto timed_set_up = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    Prepared p = set_up(w, o);
    setup_samples.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    return p;
  };
  Prepared prep = timed_set_up();
  for (int i = 1; i < kSetupRepeats; ++i) timed_set_up();
  if (o.instance_seed != 0) {
    for (const auto& [name, spec] : prep.specs) {
      const Reference ref = verified_reference(spec);
      std::cout << "hold-out reference " << name << ": " << ref.method << "\n";
      prep.refs[name] = ref.text;
    }
  }
  if (!fs::exists(worker_binary())) {
    throw std::runtime_error("shard worker " + worker_binary() + " missing");
  }

  // Closed loop: rounds of one pass over the jobs.  A round starts only
  // while the time used plus half the longest round so far fits in
  // --seconds, so a run overshoots by at most half a round; at least one
  // round always runs.  With --trace 1 every job runs untraced and traced
  // back to back, alternating which goes first, so the host's drift over a
  // round cancels out of trace.overhead_share.
  Tracer tracer;
  std::vector<JobSamples> samples(w.jobs.size());
  std::vector<std::vector<Metric>> traced_layers;
  std::vector<double> overhead_ratios;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::size_t> order(w.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(o.seed);

  const auto start = std::chrono::steady_clock::now();
  double longest_round = 0.0;
  std::int64_t next_id = 0;
  for (int round = 0;; ++round) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    if (round > 0 && elapsed + 0.5 * longest_round > o.seconds) break;
    const auto round_start = std::chrono::steady_clock::now();
    std::shuffle(order.begin(), order.end(), rng);
    Sums sums;
    double untraced_s = 0.0;
    const std::size_t first_span = tracer.spans().size();
    for (const std::size_t j : order) {
      const Job& job = w.jobs[j];
      const bool traced_first = round % 2 == 1;
      for (const bool second : {false, true}) {
        const bool traced = second != traced_first;
        if (traced && !o.trace) continue;
        Outcome out;
        try {
          out = run_job(job, next_id++, prep, o, traced ? &tracer : nullptr, &sums);
        } catch (const std::exception& e) {
          out.failure = std::string("exception: ") + e.what();
        }
        ++attempted;
        timed_set_up();
        if (!out.failure.empty()) {
          ++failed;
          failures.push_back(job.name + ": " + out.failure);
          continue;
        }
        if (!traced) {
          samples[j].wall.push_back(out.wall_s);
          samples[j].cpu.push_back(out.cpu_s);
          untraced_s += out.wall_s;
        }
      }
    }
    if (o.trace) {
      overhead_ratios.push_back(ratio(sums["trace.explore_s"], untraced_s));
      traced_layers.push_back(derive_layers(sums, tracer.self_seconds_by_layer(first_span)));
    }
    longest_round = std::max(
        longest_round,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - round_start)
            .count());
  }

  // End-to-end figures: per-job medians over the untraced runs, summed.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::ostringstream jobs_json;
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const double jw = median(samples[j].wall);
    const double jc = median(samples[j].cpu);
    wall_s += jw;
    cpu_s += jc;
    std::cout << "job " << w.jobs[j].name << " (" << perfbench::mode_name(w.jobs[j].mode)
              << "): " << samples[j].wall.size() << " runs, median wall "
              << json_number(jw) << " s, cpu " << json_number(jc) << " s\n";
    jobs_json << (j == 0 ? "" : ", ") << "{\"name\": " << json_string(w.jobs[j].name)
              << ", \"mode\": " << json_string(perfbench::mode_name(w.jobs[j].mode))
              << ", \"wall_s\": [";
    for (std::size_t k = 0; k < samples[j].wall.size(); ++k) {
      jobs_json << (k == 0 ? "" : ", ") << json_number(samples[j].wall[k]);
    }
    jobs_json << "]}";
  }
  for (const std::string& f : failures) std::cout << "FAILED " << f << "\n";

  std::vector<Metric> metrics;
  if (!o.trace) {
    metrics = {{"wall_s", "s", wall_s},
               {"cpu_s", "s", cpu_s},
               {"peak_rss_mib", "MiB", peak_rss_mib()},
               {"setup_s", "s", median(setup_samples)}};
  } else {
    // Median of every per-layer metric over the passes.
    const std::vector<Metric>& shape = traced_layers.front();
    metrics.push_back({"failed_share", "ratio", ratio(static_cast<double>(failed),
                                                      static_cast<double>(attempted))});
    metrics.push_back({"trace.overhead_share", "ratio", median(overhead_ratios) - 1.0});
    for (std::size_t k = 0; k < shape.size(); ++k) {
      std::vector<double> values;
      for (const std::vector<Metric>& pass : traced_layers) values.push_back(pass[k].value);
      metrics.push_back({shape[k].name, shape[k].unit, median(values)});
    }
    const std::string trace_path =
        o.out + "/trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
    write_file(trace_path, tracer.to_chrome_json());
    std::cout << "trace " << trace_path << " (" << tracer.spans().size() << " spans)\n";
  }

  std::ostringstream m;
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    m << (k == 0 ? "" : ", ") << json_string(metrics[k].name)
      << ": {\"value\": " << json_number(metrics[k].value)
      << ", \"unit\": " << json_string(metrics[k].unit) << "}";
  }
  std::ostringstream result;
  result << "{\"correct\": " << (failed == 0 ? "true" : "false")
         << ", \"attempted\": " << attempted << ", \"failed\": " << failed
         << ", \"metrics\": {" << m.str() << "}}";

  const std::string report_path = o.out + "/report-" + o.workload + "-seed" +
                                  std::to_string(o.seed) + "-trace" +
                                  (o.trace ? "1" : "0") + ".json";
  std::ostringstream setup_json;
  for (std::size_t k = 0; k < setup_samples.size(); ++k) {
    setup_json << (k == 0 ? "" : ", ") << json_number(setup_samples[k]);
  }
  write_file(report_path, "{\"host\": " + host + ", \"jobs\": [" + jobs_json.str() +
                              "], \"setup_s\": [" + setup_json.str() +
                              "], \"result\": " + result.str() + "}\n");
  std::cout << "report " << report_path << "\n";
  std::cout << result.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return o.make_refs ? make_refs(o) : run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
