#include "dse/warmstart.hpp"

#include <algorithm>
#include <map>

#include "ea/nsga2.hpp"
#include "pareto/archive.hpp"
#include "pareto/indicators.hpp"
#include "synth/validator.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace aspmt::dse {

std::optional<WarmStartMethod> parse_warm_start_method(const std::string& name) {
  if (name == "off") return WarmStartMethod::Off;
  if (name == "nsga2") return WarmStartMethod::Nsga2;
  if (name == "sampler") return WarmStartMethod::Sampler;
  return std::nullopt;
}

const char* warm_start_method_name(WarmStartMethod m) {
  switch (m) {
    case WarmStartMethod::Off: return "off";
    case WarmStartMethod::Nsga2: return "nsga2";
    case WarmStartMethod::Sampler: return "sampler";
  }
  return "off";
}

namespace {

/// Budgeted NSGA-II pass: split the evaluation budget into a population and
/// generation count (evaluations = pop * (gens + 1)).
void nsga2_candidates(const synth::Specification& spec,
                      const WarmStartOptions& options,
                      std::vector<WarmSeedCandidate>& out,
                      std::uint64_t& evaluations) {
  ea::Nsga2Options ea_opts;
  ea_opts.seed = options.seed;
  ea_opts.collect_witnesses = true;
  const std::uint64_t budget = std::max<std::uint64_t>(options.budget, 16);
  ea_opts.population =
      static_cast<std::size_t>(std::clamp<std::uint64_t>(budget / 10, 8, 40));
  ea_opts.generations =
      static_cast<std::size_t>(budget / ea_opts.population) - 1;
  const ea::Nsga2Result r = ea::nsga2(spec, ea_opts);
  evaluations += r.evaluations;
  for (std::size_t i = 0; i < r.front.size(); ++i) {
    out.push_back({r.front[i], r.witnesses[i]});
  }
}

/// Uniform random genotypes through the EA decoder — cheaper than NSGA-II
/// and with no selection pressure; useful as a baseline and on specs where
/// the EA's shortest-path routing restriction bites.
void sampler_candidates(const synth::Specification& spec,
                        const WarmStartOptions& options,
                        std::vector<WarmSeedCandidate>& out,
                        std::uint64_t& evaluations) {
  util::Rng rng(options.seed);
  const std::size_t T = spec.tasks().size();
  ea::Genotype g;
  g.option.resize(T);
  g.priority.resize(T);
  for (std::uint64_t i = 0; i < options.budget; ++i) {
    for (std::size_t t = 0; t < T; ++t) {
      g.option[t] = rng.below(spec.mappings_of(t).size());
      g.priority[t] = rng.uniform();
    }
    ++evaluations;
    synth::Implementation impl;
    if (ea::decode_genotype(spec, g, impl)) {
      pareto::Vec point = synth::recompute_objectives(spec, impl);
      out.push_back({std::move(point), std::move(impl)});
    }
  }
}

}  // namespace

WarmStartResult generate_warm_seeds(const synth::Specification& spec,
                                    const WarmStartOptions& options) {
  util::Timer timer;
  WarmStartResult result;
  std::vector<WarmSeedCandidate> candidates;
  switch (options.method) {
    case WarmStartMethod::Off:
      break;
    case WarmStartMethod::Nsga2:
      nsga2_candidates(spec, options, candidates, result.heuristic_evaluations);
      break;
    case WarmStartMethod::Sampler:
      sampler_candidates(spec, options, candidates, result.heuristic_evaluations);
      break;
  }
  candidates.insert(candidates.end(), options.external.begin(),
                    options.external.end());
  result.candidates = candidates.size();

  // The exactness gate: nothing enters the archive on the heuristic's word
  // alone.  The witness must independently re-validate and its recomputed
  // objectives must equal the claimed point.
  std::vector<WarmSeedCandidate> validated;
  for (WarmSeedCandidate& c : candidates) {
    // Structural validation first: recompute_objectives walks bindings and
    // routes, so it must never see an unvalidated (possibly adversarial)
    // candidate.
    if (!synth::validate_implementation(spec, c.impl).empty() ||
        c.point != synth::recompute_objectives(spec, c.impl)) {
      ++result.rejected_invalid;
      continue;
    }
    validated.push_back(std::move(c));
  }

  // Reduce to an antichain: duplicates and dominated seeds would only waste
  // archive inserts downstream.
  pareto::LinearArchive antichain;
  std::map<pareto::Vec, WarmSeedCandidate> by_point;
  for (WarmSeedCandidate& c : validated) {
    if (antichain.insert(c.point)) {
      by_point[c.point] = std::move(c);
    }
  }
  for (const pareto::Vec& p : antichain.points()) {
    result.seeds.push_back(std::move(by_point.at(p)));
  }
  result.rejected_dominated = validated.size() - result.seeds.size();
  result.seconds = timer.elapsed_seconds();
  return result;
}

namespace {

/// Epsilon-constraint work partitioning: split the observed objective-0
/// range [lo, hi] into `parts` regions and return the ascending interior
/// upper bounds (at most parts-1, deduplicated, strictly inside (lo, hi)).
/// Purely a work-partitioning heuristic — completeness never depends on it.
std::vector<std::int64_t> epsilon_splits(std::int64_t lo, std::int64_t hi,
                                         std::size_t parts) {
  std::vector<std::int64_t> splits;
  if (parts < 2 || hi <= lo) return splits;
  const std::int64_t span = hi - lo;
  for (std::size_t i = 1; i < parts; ++i) {
    const std::int64_t b =
        lo + span * static_cast<std::int64_t>(i) /
                 static_cast<std::int64_t>(parts);
    if (b <= lo || b >= hi) continue;
    if (!splits.empty() && splits.back() == b) continue;
    splits.push_back(b);
  }
  return splits;
}

}  // namespace

bool SliceScheduler::seed(const std::vector<pareto::Vec>& front,
                          std::size_t parts) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (seeded_) return true;
  if (front.size() < 2 || parts < 2) return false;
  std::int64_t lo = front.front()[0];
  std::int64_t hi = front.front()[0];
  for (const pareto::Vec& p : front) {
    lo = std::min(lo, p[0]);
    hi = std::max(hi, p[0]);
  }
  const std::vector<std::int64_t> splits = epsilon_splits(lo, hi, parts);
  if (splits.empty()) return false;
  const std::vector<double> gaps = pareto::slice_hypervolume_gaps(front, splits);
  slices_.resize(splits.size());
  requeued_.assign(splits.size(), 0);
  for (std::size_t i = 0; i < splits.size(); ++i) {
    slices_[i] = Slice{i, splits[i], gaps[i]};
  }
  // Pending queue ordered so the *back* is the next claim: ascending gap,
  // ties broken towards lower slice id (tighter objective-0 bound) first.
  queue_.resize(slices_.size());
  for (std::size_t i = 0; i < queue_.size(); ++i) queue_[i] = i;
  std::stable_sort(queue_.begin(), queue_.end(),
                   [this](std::size_t a, std::size_t b) {
                     if (slices_[a].gap != slices_[b].gap) {
                       return slices_[a].gap < slices_[b].gap;
                     }
                     return slices_[a].id > slices_[b].id;
                   });
  seeded_ = true;
  return true;
}

std::optional<SliceScheduler::Slice> SliceScheduler::claim() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!seeded_ || queue_.empty()) return std::nullopt;
  const std::size_t id = queue_.back();
  queue_.pop_back();
  return slices_[id];
}

void SliceScheduler::abandon(std::size_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!seeded_ || id >= slices_.size() || requeued_[id] != 0) return;
  requeued_[id] = 1;
  // Reinsert in gap order so the orphan competes on its score, not on
  // recency.
  const auto pos = std::lower_bound(
      queue_.begin(), queue_.end(), id, [this](std::size_t q, std::size_t v) {
        return slices_[q].gap < slices_[v].gap;
      });
  queue_.insert(pos, id);
}

bool SliceScheduler::seeded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return seeded_;
}

std::size_t SliceScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace aspmt::dse
