// Randomized end-to-end fuzz: random generator configurations, random
// capacities and deadlines — the explorer must agree with an independent
// exact method, every witness must validate, and every run is driven in
// certified mode: the terminating Unsat proof is replayed by the
// independent checker and the front cross-checked against the validated
// witnesses (see src/cert/).  Seeds honour ASPMT_TEST_SEED (test_util.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "dse/baselines.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/respec.hpp"
#include "dse/parallel_explorer.hpp"
#include "dse/warmstart.hpp"
#include "gen/generator.hpp"
#include "pareto/indicators.hpp"
#include "spec_mutations.hpp"
#include "synth_fixtures.hpp"
#include "synth/validator.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace aspmt {
namespace {

class FuzzDse : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDse, ExplorerAgreesWithLexUnderRandomConstraints) {
  const std::uint64_t seed = test::fuzz_seed(GetParam());
  util::Rng rng(seed * 7207 + 17);
  gen::GeneratorConfig c;
  c.seed = rng.next();
  c.tasks = 4 + static_cast<std::uint32_t>(rng.below(4));
  c.layers = 2 + static_cast<std::uint32_t>(rng.below(3));
  c.options_per_task = 2 + static_cast<std::uint32_t>(rng.below(2));
  c.extra_edge_density = rng.uniform() * 0.4;
  c.payload_max = 1 + static_cast<std::int64_t>(rng.below(4));
  switch (rng.below(3)) {
    case 0: c.architecture = gen::Architecture::SharedBus; break;
    case 1: c.architecture = gen::Architecture::Mesh2x2; break;
    default:
      c.architecture = gen::Architecture::Mesh2x2;  // keep 3x3 out of fuzz (slow)
      break;
  }
  synth::Specification spec = gen::generate(c);

  // Random capacity on one processor, random-ish deadline sometimes.
  if (rng.chance(0.5)) {
    const auto r = static_cast<synth::ResourceId>(rng.below(spec.resources().size()));
    spec.set_capacity(r, 1 + static_cast<std::uint32_t>(rng.below(3)));
  }
  if (rng.chance(0.4)) {
    // A loose-ish deadline derived from total work (often binding, sometimes
    // infeasible — both are interesting).
    std::int64_t total = 0;
    for (const auto& o : spec.mappings()) total += o.wcet;
    spec.latency_bound = 1 + static_cast<std::int64_t>(
        rng.below(static_cast<std::uint64_t>(total)));
  }

  dse::ExploreOptions eopts;
  eopts.common.certify = true;  // every terminating Unsat goes through the checker
  const dse::ExploreResult e = dse::explore(spec, eopts);
  ASSERT_TRUE(e.stats.complete) << gen::summarize(spec);
  EXPECT_TRUE(e.certified) << "seed " << seed << ": " << e.certificate_error;
  for (std::size_t i = 0; i < e.front.size(); ++i) {
    EXPECT_EQ(synth::validate_implementation(spec, e.witnesses[i]), "")
        << "seed " << seed;
    EXPECT_EQ(e.witnesses[i].objectives(), e.front[i]);
  }
  const dse::BaselineResult lex = dse::lexicographic_epsilon(spec, 300.0);
  ASSERT_TRUE(lex.complete);
  EXPECT_EQ(e.front, lex.front) << "seed " << seed << " "
                                << gen::summarize(spec);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDse, ::testing::Range<std::uint64_t>(0, 25));

class FuzzDseSmall : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDseSmall, EnumerationAgreesOnTinyInstances) {
  const std::uint64_t seed = test::fuzz_seed(GetParam());
  util::Rng rng(seed * 31337 + 5);
  gen::GeneratorConfig c;
  c.seed = rng.next();
  c.tasks = 3 + static_cast<std::uint32_t>(rng.below(2));
  c.layers = 2;
  c.options_per_task = 2;
  c.architecture = rng.chance(0.5) ? gen::Architecture::SharedBus
                                   : gen::Architecture::Mesh2x2;
  c.bus_processors = 2;
  const synth::Specification spec = gen::generate(c);
  dse::ExploreOptions eopts;
  eopts.common.certify = true;
  const dse::ExploreResult e = dse::explore(spec, eopts);
  const dse::BaselineResult b = dse::enumerate_and_filter(spec, 300.0);
  ASSERT_TRUE(e.stats.complete && b.complete);
  EXPECT_TRUE(e.certified) << "seed " << seed << ": " << e.certificate_error;
  EXPECT_EQ(e.front, b.front) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDseSmall,
                         ::testing::Range<std::uint64_t>(0, 15));

// Seeded fuzz mode for the parallel portfolio: on randomly generated specs
// the parallel front at a random thread count must be point-for-point the
// sequential front.  On mismatch the failing seed is printed — rerun with
// --gtest_filter='Seeds/FuzzParallelDse.*/<seed>' to reproduce.
class FuzzParallelDse : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzParallelDse, ParallelFrontEqualsSequentialFront) {
  const std::uint64_t seed = test::fuzz_seed(GetParam());
  util::Rng rng(seed * 104729 + 11);
  gen::GeneratorConfig c;
  c.seed = rng.next();
  c.tasks = 3 + static_cast<std::uint32_t>(rng.below(3));
  c.layers = 2 + static_cast<std::uint32_t>(rng.below(2));
  c.options_per_task = 2;
  c.extra_edge_density = rng.uniform() * 0.3;
  c.architecture = rng.chance(0.5) ? gen::Architecture::SharedBus
                                   : gen::Architecture::Mesh2x2;
  c.bus_processors = 2 + static_cast<std::uint32_t>(rng.below(2));
  synth::Specification spec = gen::generate(c);
  if (rng.chance(0.4)) {
    const auto r = static_cast<synth::ResourceId>(rng.below(spec.resources().size()));
    spec.set_capacity(r, 1 + static_cast<std::uint32_t>(rng.below(3)));
  }

  const dse::ExploreResult seq = dse::explore(spec);
  ASSERT_TRUE(seq.stats.complete) << "seed " << seed;

  dse::ParallelExploreOptions popts;
  popts.threads = 2 + static_cast<std::size_t>(rng.below(3));  // 2..4
  popts.seed = seed + 1;
  popts.common.certify = true;  // winner's Unsat proof replayed by the checker
  const dse::ParallelExploreResult par = dse::explore_parallel(spec, popts);
  ASSERT_TRUE(par.base.stats.complete) << "seed " << seed;
  EXPECT_TRUE(par.base.certified) << "seed " << seed << ": "
                             << par.base.certificate_error;
  EXPECT_EQ(par.base.front, seq.front)
      << "seed " << seed << " threads " << popts.threads << " "
      << gen::summarize(spec);
  for (std::size_t i = 0; i < par.base.front.size(); ++i) {
    EXPECT_EQ(synth::validate_implementation(spec, par.base.witnesses[i]), "")
        << "seed " << seed;
    EXPECT_EQ(par.base.witnesses[i].objectives(), par.base.front[i])
        << "seed " << seed;
  }

  // Uncertified, the same portfolio exchanges learnt clauses between its
  // workers; the front must not move.
  popts.common.certify = false;
  const dse::ParallelExploreResult plain = dse::explore_parallel(spec, popts);
  ASSERT_TRUE(plain.base.stats.complete) << "seed " << seed;
  test::expect_front_shape(spec, plain.base);
  EXPECT_EQ(plain.base.front, seq.front)
      << "seed " << seed << " threads " << popts.threads << " uncertified";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParallelDse,
                         ::testing::Range<std::uint64_t>(0, 12));

// Hybrid-pipeline fuzz: random specs under a randomly drawn warm-start
// configuration (method, budget, heuristic seed, occasionally an
// adversarial fake candidate, random thread count).  The warm front must
// equal the cold front point-for-point, certification must survive the
// injected seeds, and the anytime hypervolume profile — seeds included —
// must be monotone non-decreasing.
class FuzzHybridDse : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzHybridDse, WarmFrontEqualsColdFrontAndAnytimeHvIsMonotone) {
  const std::uint64_t seed = test::fuzz_seed(GetParam());
  util::Rng rng(seed * 52361 + 29);
  gen::GeneratorConfig c;
  c.seed = rng.next();
  c.tasks = 3 + static_cast<std::uint32_t>(rng.below(3));
  c.layers = 2 + static_cast<std::uint32_t>(rng.below(2));
  c.options_per_task = 2;
  c.extra_edge_density = rng.uniform() * 0.3;
  c.architecture = rng.chance(0.5) ? gen::Architecture::SharedBus
                                   : gen::Architecture::Mesh2x2;
  c.bus_processors = 2 + static_cast<std::uint32_t>(rng.below(2));
  const synth::Specification spec = gen::generate(c);

  const dse::ExploreResult cold = dse::explore(spec);
  ASSERT_TRUE(cold.stats.complete) << "seed " << seed;

  dse::WarmStartOptions warm;
  switch (rng.below(3)) {
    case 0: warm.method = dse::WarmStartMethod::Off; break;
    case 1: warm.method = dse::WarmStartMethod::Nsga2; break;
    default: warm.method = dse::WarmStartMethod::Sampler; break;
  }
  warm.budget = 50 + rng.below(200);
  warm.seed = rng.next();
  if (rng.chance(0.3)) {
    // An adversarial candidate claiming a utopian point with no real
    // implementation behind it — the validation gate must drop it.
    dse::WarmSeedCandidate fake;
    fake.point = {1, 1, 1};
    warm.external.push_back(std::move(fake));
  }

  dse::ExploreResult hybrid;
  const std::size_t threads = 1 + static_cast<std::size_t>(rng.below(3));
  if (threads == 1) {
    dse::ExploreOptions opts;
    opts.common.certify = true;
    opts.common.warm_start = warm;
    hybrid = dse::explore(spec, opts);
  } else {
    dse::ParallelExploreOptions opts;
    opts.threads = threads;
    opts.seed = seed + 1;
    opts.common.certify = true;
    opts.common.warm_start = warm;
    hybrid = std::move(dse::explore_parallel(spec, opts).base);
  }
  ASSERT_TRUE(hybrid.stats.complete) << "seed " << seed;
  EXPECT_TRUE(hybrid.certified) << "seed " << seed << ": "
                                << hybrid.certificate_error;
  EXPECT_EQ(hybrid.front, cold.front)
      << "seed " << seed << " threads " << threads << " method "
      << dse::warm_start_method_name(warm.method) << " "
      << gen::summarize(spec);
  if (!warm.external.empty()) {
    EXPECT_GE(hybrid.stats.warm_rejected, 1U) << "seed " << seed;
  }

  // Anytime-hypervolume monotonicity over the discovery sequence.
  if (!hybrid.discoveries.empty()) {
    pareto::Vec ref = hybrid.discoveries.front().second;
    for (const auto& [when, p] : hybrid.discoveries) {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ref[i] = std::max(ref[i], p[i] + 1);
      }
    }
    std::vector<pareto::Vec> prefix;
    double prev = 0.0;
    double prev_when = 0.0;
    for (const auto& [when, p] : hybrid.discoveries) {
      EXPECT_GE(when, prev_when - 1e-9) << "seed " << seed;
      prev_when = when;
      prefix.push_back(p);
      const double hv = pareto::hypervolume(prefix, ref);
      EXPECT_GE(hv, prev - 1e-9)
          << "seed " << seed << ": anytime HV regressed at "
          << pareto::to_string(p);
      prev = hv;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzHybridDse,
                         ::testing::Range<std::uint64_t>(0, 15));

// Incremental re-exploration fuzz (src/dse/respec.*): a random spec is
// cold-explored with a snapshot attached, then edited by a random chain of
// 2–8 catalogue mutations (tests/spec_mutations.hpp) — spanning coefficient
// tweaks, mapping retargets and task add/remove, so the chain's delta class
// is itself random.  dse::reexplore from the stale checkpoint must return
// exactly the cold front of the edited spec, certified, at a random thread
// count.  Reuse stats must stay internally consistent.
class FuzzRespec : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzRespec, EditChainsNeverDistortTheIncrementalFront) {
  const std::uint64_t seed = test::fuzz_seed(GetParam());
  util::Rng rng(seed * 86243 + 41);
  gen::GeneratorConfig c;
  c.seed = rng.next();
  c.tasks = 3 + static_cast<std::uint32_t>(rng.below(3));
  c.layers = 2 + static_cast<std::uint32_t>(rng.below(2));
  c.options_per_task = 2;
  c.extra_edge_density = rng.uniform() * 0.3;
  c.architecture = rng.chance(0.5) ? gen::Architecture::SharedBus
                                   : gen::Architecture::Mesh2x2;
  c.bus_processors = 2 + static_cast<std::uint32_t>(rng.below(2));
  const synth::Specification base = gen::generate(c);

  // The previous session: a real cold run with a snapshot file attached.
  const std::string path = ::testing::TempDir() + "aspmt_fuzz_respec_" +
                           std::to_string(seed) + ".ckpt";
  dse::ExploreOptions prev_opts;
  prev_opts.common.checkpoint_path = path;
  const dse::ExploreResult prev_run = dse::explore(base, prev_opts);
  ASSERT_TRUE(prev_run.stats.complete) << "seed " << seed;
  dse::Checkpoint prev;
  ASSERT_EQ(dse::load_checkpoint(path, prev), "") << "seed " << seed;
  std::remove(path.c_str());

  // A chain of 2..8 random single-edit mutations.
  std::size_t n_cases = 0;
  const test::MutationCase* cases = test::mutation_catalogue(n_cases);
  synth::Specification edited = base;
  const std::size_t chain = 2 + rng.below(7);
  std::string trail;
  for (std::size_t i = 0; i < chain; ++i) {
    const test::MutationCase& m = cases[rng.below(n_cases)];
    // Preserve preconditions: removing the last task needs a spare task.
    if (m.apply == &test::mutate_task_remove && edited.tasks().size() < 2) {
      continue;
    }
    synth::Specification next = m.apply(edited);
    if (!next.validate().empty()) continue;  // edit landed on a degenerate spec
    edited = std::move(next);
    trail += std::string(trail.empty() ? "" : "+") + m.name;
  }
  ASSERT_EQ(edited.validate(), "") << "seed " << seed << " chain " << trail;

  const dse::ExploreResult cold = dse::explore(edited);
  ASSERT_TRUE(cold.stats.complete) << "seed " << seed << " chain " << trail;

  dse::ReexploreOptions ro;
  ro.base.threads = 1 + static_cast<std::size_t>(rng.below(4));  // 1..4
  ro.base.seed = seed + 3;
  ro.base.common.certify = true;
  const dse::ReexploreResult inc = dse::reexplore(prev, edited, ro);
  ASSERT_TRUE(inc.base.stats.complete)
      << "seed " << seed << " chain " << trail;
  EXPECT_EQ(inc.base.front, cold.front)
      << "seed " << seed << " chain " << trail << " threads "
      << ro.base.threads << " delta "
      << dse::delta_class_name(inc.reuse.delta.cls) << " "
      << gen::summarize(edited);
  EXPECT_TRUE(inc.base.certified)
      << "seed " << seed << " chain " << trail << ": "
      << inc.base.certificate_error;

  // Reuse accounting invariants.
  EXPECT_GE(inc.reuse.reuse_rate(), 0.0) << "seed " << seed;
  EXPECT_LE(inc.reuse.reuse_rate(), 1.0) << "seed " << seed;
  EXPECT_LE(inc.reuse.archive_reused, inc.reuse.archive_candidates);
  EXPECT_LE(inc.reuse.clauses_replayed, inc.reuse.clause_candidates);
  if (inc.reuse.delta.cls == dse::DeltaClass::Unsafe) {
    EXPECT_TRUE(inc.reuse.cold_start) << "seed " << seed;
    EXPECT_EQ(inc.reuse.archive_reused, 0U) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRespec,
                         ::testing::Range<std::uint64_t>(0, 15));

}  // namespace
}  // namespace aspmt
