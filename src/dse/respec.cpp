#include "dse/respec.hpp"

#include <algorithm>
#include <iterator>

#include "dse/checkpoint.hpp"
#include "dse/warmstart.hpp"
#include "ea/nsga2.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "synth/validator.hpp"

namespace aspmt::dse {
namespace {

// FNV-1a over typed fields.  Every value is length- or count-prefixed so
// section digests never collide by concatenation reshuffling alone.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(unsigned char b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
};

}  // namespace

SectionDigests spec_sections(const synth::Specification& spec) {
  SectionDigests d;
  {
    // Application topology: task identity plus the message DAG.  Anything
    // here invalidates witnesses (the genotype is indexed by task).
    Fnv h;
    h.u64(spec.tasks().size());
    for (const synth::Task& t : spec.tasks()) h.str(t.name);
    h.u64(spec.messages().size());
    for (const synth::Message& m : spec.messages()) {
      h.str(m.name);
      h.u64(m.src);
      h.u64(m.dst);
    }
    d.tasks = h.h;
  }
  {
    // Architecture structure: resources, their kinds/capacities, the link
    // graph and the hop bound — everything that shapes routing variables.
    Fnv h;
    h.u64(spec.resources().size());
    for (const synth::Resource& r : spec.resources()) {
      h.str(r.name);
      h.u64(static_cast<std::uint64_t>(r.kind));
      h.u64(r.capacity);
    }
    h.u64(spec.links().size());
    for (const synth::Link& l : spec.links()) {
      h.u64(l.from);
      h.u64(l.to);
    }
    h.u64(spec.max_hops);
    d.resources = h.h;
  }
  {
    // Mapping option structure: which (task, resource) pairs exist, in
    // order.  Equal tasks+resources+mappings digests mean the encoding's
    // variable layout is reproduced bit-for-bit.
    Fnv h;
    h.u64(spec.mappings().size());
    for (const synth::MappingOption& m : spec.mappings()) {
      h.u64(m.task);
      h.u64(m.resource);
    }
    d.mappings = h.h;
  }
  {
    // Every numeric coefficient: WCETs, energies, costs, link weights,
    // payloads and the deadline.  Changing only these leaves the variable
    // layout intact — learnt clauses from the old session stay *speakable*
    // (not necessarily true, which is what the replay guard is for).
    Fnv h;
    for (const synth::MappingOption& m : spec.mappings()) {
      h.i64(m.wcet);
      h.i64(m.energy);
    }
    for (const synth::Resource& r : spec.resources()) h.i64(r.cost);
    for (const synth::Link& l : spec.links()) {
      h.i64(l.hop_delay);
      h.i64(l.hop_energy);
    }
    for (const synth::Message& m : spec.messages()) h.i64(m.payload);
    h.i64(spec.latency_bound);
    d.objectives = h.h;
  }
  {
    // Objective-tree identity: declared scenarios plus the combinator axis
    // expressions.  A classic spec (no declarations) hashes to the fixed
    // default_tree_digest(), which is what pre-v5 checkpoints assume.
    Fnv h;
    h.u64(spec.scenarios().size());
    for (const synth::Scenario& s : spec.scenarios()) {
      h.str(s.name);
      h.u64(s.factor.size());
      for (const std::int64_t f : s.factor) h.i64(f);
    }
    h.u64(spec.objective_exprs().size());
    for (const synth::ObjectiveExpr& e : spec.objective_exprs()) {
      h.str(synth::to_string(e));
    }
    d.tree = h.h;
  }
  return d;
}

std::uint64_t default_tree_digest() noexcept {
  Fnv h;
  h.u64(0);  // no scenarios
  h.u64(0);  // no objective expressions
  return h.h;
}

const char* delta_class_name(DeltaClass c) noexcept {
  switch (c) {
    case DeltaClass::Identical: return "identical";
    case DeltaClass::ClauseSafe: return "clause-safe";
    case DeltaClass::ArchiveSafe: return "archive-safe";
    case DeltaClass::Unsafe: return "unsafe";
  }
  return "unknown";
}

DeltaReport classify_delta(const SectionDigests& prev,
                           const SectionDigests& next) {
  DeltaReport r;
  r.tasks_changed = prev.tasks != next.tasks;
  r.resources_changed = prev.resources != next.resources;
  r.mappings_changed = prev.mappings != next.mappings;
  r.objectives_changed = prev.objectives != next.objectives;
  r.tree_changed = prev.tree != next.tree;
  if (r.tasks_changed || r.tree_changed) {
    // A changed objective tree redefines what a Pareto point *is* — axis
    // count, axis semantics, dominance geometry — so neither the archive nor
    // any learnt dominance clause survives: cold start.
    r.cls = DeltaClass::Unsafe;
  } else if (r.resources_changed || r.mappings_changed) {
    r.cls = DeltaClass::ArchiveSafe;
  } else if (r.objectives_changed) {
    r.cls = DeltaClass::ClauseSafe;
  } else {
    r.cls = DeltaClass::Identical;
  }
  return r;
}

DeltaReport classify_checkpoint(const Checkpoint& prev,
                                const synth::Specification& next) {
  if (!prev.has_sections) {
    // v1/v2 checkpoint: only the combined fingerprint exists, so the delta
    // is all-or-nothing.
    DeltaReport r;
    r.cls = prev.spec_fingerprint == spec_fingerprint(next)
                ? DeltaClass::Identical
                : DeltaClass::Unsafe;
    return r;
  }
  return classify_delta(prev.sections, spec_sections(next));
}

std::vector<std::vector<asp::Lit>> decode_replay(const ClauseReplay& replay,
                                                 std::uint32_t base_vars) {
  std::vector<std::vector<asp::Lit>> out;
  if (replay.base_vars != base_vars || base_vars == 0) return out;
  out.reserve(replay.clauses.size());
  for (const std::vector<std::int32_t>& c : replay.clauses) {
    std::vector<asp::Lit> lits;
    lits.reserve(c.size());
    bool in_range = !c.empty();
    for (const std::int32_t l : c) {
      const auto v = static_cast<std::uint32_t>(l < 0 ? -l : l);
      if (l == 0 || v > base_vars) {
        in_range = false;
        break;
      }
      lits.push_back(asp::Lit::make(v - 1, l > 0));
    }
    if (in_range) out.push_back(std::move(lits));
  }
  return out;
}

namespace {

/// Cap on replayed clauses (the dump is best-first already).
constexpr std::size_t kMaxReplayClauses = 4096;

/// Re-decode a checkpointed witness into a seed candidate for `new_spec`.
/// The witness's global option indices come from the *old* spec; under an
/// unchanged mapping section they coincide with the new ones, otherwise the
/// bound resource is matched by id.  The genotype decode recomputes routes,
/// schedule and objectives against the new spec and rejects anything
/// infeasible there.
bool reseed_witness(const synth::Specification& new_spec,
                    const synth::Implementation& old_impl,
                    WarmSeedCandidate& out) {
  const std::size_t n_tasks = new_spec.tasks().size();
  if (old_impl.option_of_task.size() != n_tasks) return false;
  ea::Genotype g;
  g.option.resize(n_tasks, 0);
  g.priority.resize(n_tasks, 0.0);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const std::vector<std::size_t>& opts =
        new_spec.mappings_of(static_cast<synth::TaskId>(t));
    if (opts.empty()) return false;
    const std::size_t old_global = old_impl.option_of_task[t];
    std::size_t local = 0;
    bool found = false;
    for (std::size_t i = 0; i < opts.size(); ++i) {
      if (opts[i] == old_global) {
        local = i;
        found = true;
        break;
      }
    }
    if (!found && t < old_impl.binding.size()) {
      for (std::size_t i = 0; i < opts.size(); ++i) {
        if (new_spec.mappings()[opts[i]].resource == old_impl.binding[t]) {
          local = i;
          break;
        }
      }
    }
    g.option[t] = local;
    // Reproduce the old schedule order: earlier old start = higher priority.
    g.priority[t] =
        t < old_impl.start.size() ? -static_cast<double>(old_impl.start[t]) : 0.0;
  }
  synth::Implementation impl;
  if (!ea::decode_genotype(new_spec, g, impl)) return false;
  out.point = synth::recompute_objectives(new_spec, impl);
  out.impl = std::move(impl);
  return true;
}

}  // namespace

std::vector<WarmSeedCandidate> checkpoint_seeds(
    const Checkpoint& ckpt, const synth::Specification& spec) {
  std::vector<WarmSeedCandidate> seeds;
  if (classify_checkpoint(ckpt, spec).cls == DeltaClass::Unsafe) return seeds;
  for (const synth::Implementation& w : ckpt.witnesses) {
    if (w.option_of_task.empty()) continue;  // missing witness
    WarmSeedCandidate cand;
    if (synth::validate_implementation(spec, w).empty()) {
      // Still an implementation of `spec`: keep it (and its schedule) as it
      // is, so a restart re-seeds exactly the checkpointed point.
      cand.point = synth::recompute_objectives(spec, w);
      cand.impl = w;
    } else if (!reseed_witness(spec, w, cand)) {
      continue;
    }
    seeds.push_back(std::move(cand));
  }
  return seeds;
}

ReuseStats reuse_checkpoint(const Checkpoint& ckpt,
                            const synth::Specification& spec,
                            ParallelExploreOptions& run) {
  ReuseStats reuse;
  reuse.delta = classify_checkpoint(ckpt, spec);
  const DeltaClass cls = reuse.delta.cls;
  CommonOptions& common = run.common;

  // Archive reuse: the seeds enter the warm gate (validate → antichain →
  // inject), which also emits their F proof steps, keeping the run
  // certifiable.
  if (cls != DeltaClass::Unsafe) {
    reuse.archive_candidates = static_cast<std::size_t>(std::count_if(
        ckpt.witnesses.begin(), ckpt.witnesses.end(),
        [](const synth::Implementation& w) {
          return !w.option_of_task.empty();
        }));
  }
  std::vector<WarmSeedCandidate> seeds = checkpoint_seeds(ckpt, spec);
  reuse.archive_reused = seeds.size();

  // Clause reuse: only when the variable layout provably survived the edit.
  // The dump is re-validated here (a checkpoint struct handed to us need not
  // have gone through the parser); invalid clauses are dropped, and the
  // explorer drops the whole dump on a base mismatch.
  if ((cls == DeltaClass::Identical || cls == DeltaClass::ClauseSafe) &&
      ckpt.clause_base_vars > 0 && !ckpt.clauses.empty()) {
    reuse.clause_candidates = ckpt.clauses.size();
    ClauseReplay replay;
    replay.base_vars = ckpt.clause_base_vars;
    for (const std::vector<std::int32_t>& c : ckpt.clauses) {
      if (replay.clauses.size() >= kMaxReplayClauses) break;
      bool valid = !c.empty();
      for (const std::int32_t l : c) {
        const auto v = static_cast<std::uint32_t>(l < 0 ? -l : l);
        if (l == 0 || v > ckpt.clause_base_vars) {
          valid = false;
          break;
        }
      }
      if (valid) replay.clauses.push_back(c);
    }
    if (!replay.clauses.empty()) {
      reuse.clauses_replayed = replay.clauses.size();
      common.clause_replay = std::move(replay);
    }
  }

  reuse.cold_start = seeds.empty() && reuse.clauses_replayed == 0;
  common.warm_start.external.insert(common.warm_start.external.end(),
                                    std::make_move_iterator(seeds.begin()),
                                    std::make_move_iterator(seeds.end()));

  // Pre-run observability: the run's own collector is not up yet and this
  // function is single-threaded, so the events go straight to the sink.
  if (common.sink != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::RespecDelta;
    e.a = static_cast<std::int64_t>(cls);
    e.b = reuse.delta.section_mask();
    e.c = reuse.cold_start ? 1 : 0;
    common.sink->on_event(e);
    e.kind = obs::EventKind::RespecReuse;
    e.a = static_cast<std::int64_t>(reuse.archive_reused);
    e.b = static_cast<std::int64_t>(reuse.clauses_replayed);
    e.c = 0;
    common.sink->on_event(e);
  }
  if (common.metrics != nullptr) {
    obs::MetricsRegistry& m = *common.metrics;
    m.counter("respec.archive_candidates").set(reuse.archive_candidates);
    m.counter("respec.archive_reused").set(reuse.archive_reused);
    m.counter("respec.clause_candidates").set(reuse.clause_candidates);
    m.counter("respec.clauses_replayed").set(reuse.clauses_replayed);
    m.gauge("respec.delta_class").set(static_cast<double>(cls));
    m.gauge("respec.reuse_rate").set(reuse.reuse_rate());
    m.gauge("respec.cold_start").set(reuse.cold_start ? 1.0 : 0.0);
  }
  return reuse;
}

ReexploreResult reexplore(const Checkpoint& prev,
                          const synth::Specification& new_spec,
                          const ReexploreOptions& options) {
  ReexploreResult result;
  ParallelExploreOptions run = options.base;
  result.reuse = reuse_checkpoint(prev, new_spec, run);
  result.base = explore_parallel(new_spec, run).base;
  return result;
}

}  // namespace aspmt::dse
