// Differential exactness layer for the hybrid heuristic–exact pipeline
// (dse/warmstart.hpp): on every checked-in example specification and every
// fixture, a warm-started run must reproduce the cold run's front
// point-for-point at 1, 2 and 4 threads, its proof stream must satisfy both
// the trust-mode checker (what tools/aspmt_check replays) and full
// certification, and adversarially injected fake seeds — infeasible,
// mislabelled, or dominated — must bounce off the validation gate without
// poisoning the archive.
#include "dse/warmstart.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cert/checker.hpp"
#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "ea/nsga2.hpp"
#include "synth/specio.hpp"
#include "synth/validator.hpp"
#include "synth_fixtures.hpp"

#ifndef ASPMT_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define ASPMT_TEST_DATA_DIR"
#endif

namespace aspmt::dse {
namespace {

struct SpecCase {
  const char* name;
  synth::Specification (*fixture)();  // null: load examples/specs/<name>.txt
};

const SpecCase kSpecs[] = {
    {"two_proc_bus", &test::two_proc_bus},
    {"chain3_bus", &test::chain3_bus},
    {"diamond_two_proc", &test::diamond_two_proc},
    {"bus_small", nullptr},
    {"mesh_small", nullptr},
    {"bus_wide", nullptr},
    {"mesh_chain", nullptr},
};

synth::Specification load_case(const SpecCase& c) {
  if (c.fixture != nullptr) return c.fixture();
  return synth::load_specification(std::string(ASPMT_TEST_DATA_DIR) +
                                   "/examples/specs/" + c.name + ".txt");
}

WarmStartOptions nsga2_warm(std::uint64_t seed = 3, std::uint64_t budget = 200) {
  WarmStartOptions w;
  w.method = WarmStartMethod::Nsga2;
  w.budget = budget;
  w.seed = seed;
  return w;
}

/// Warm run at the given thread count (1 = sequential explorer) in
/// certified mode; parallel results are flattened to the shared base.
ExploreResult run_warm(const synth::Specification& spec, std::size_t threads,
                       const WarmStartOptions& warm) {
  if (threads <= 1) {
    ExploreOptions opts;
    opts.common.certify = true;
    opts.common.warm_start = warm;
    return explore(spec, opts);
  }
  ParallelExploreOptions opts;
  opts.threads = threads;
  opts.common.certify = true;
  opts.common.warm_start = warm;
  ParallelExploreResult r = explore_parallel(spec, opts);
  return std::move(r.base);
}

// --- the differential core: warm == cold, everywhere -----------------------

TEST(HybridDifferential, WarmFrontEqualsColdFrontEverySpecEveryThreadCount) {
  for (const SpecCase& c : kSpecs) {
    const synth::Specification spec = load_case(c);
    const ExploreResult cold = explore(spec);
    ASSERT_TRUE(cold.stats.complete) << c.name;
    for (const std::size_t threads : {1U, 2U, 4U}) {
      const ExploreResult warm = run_warm(spec, threads, nsga2_warm());
      ASSERT_TRUE(warm.stats.complete) << c.name << " threads " << threads;
      EXPECT_EQ(warm.front, cold.front) << c.name << " threads " << threads;
      EXPECT_TRUE(warm.certified)
          << c.name << " threads " << threads << ": "
          << warm.certificate_error;
      // Seeds are admitted before the worker starts, so a one-worker warm
      // run is judged from its streamed check, never the fallback replay.
      EXPECT_EQ(warm.stream_checked, threads == 1)
          << c.name << " threads " << threads;
      ASSERT_EQ(warm.witnesses.size(), warm.front.size()) << c.name;
      for (std::size_t i = 0; i < warm.front.size(); ++i) {
        EXPECT_EQ(synth::validate_implementation(spec, warm.witnesses[i]), "")
            << c.name << " threads " << threads;
        EXPECT_EQ(warm.witnesses[i].objectives(), warm.front[i]) << c.name;
      }
    }
  }
}

TEST(HybridDifferential, SamplerWarmStartIsExactToo) {
  WarmStartOptions w;
  w.method = WarmStartMethod::Sampler;
  w.budget = 100;
  w.seed = 9;
  for (const SpecCase& c : {kSpecs[1], kSpecs[4]}) {  // chain3_bus, mesh_small
    const synth::Specification spec = load_case(c);
    const ExploreResult cold = explore(spec);
    ASSERT_TRUE(cold.stats.complete);
    for (const std::size_t threads : {1U, 2U}) {
      const ExploreResult warm = run_warm(spec, threads, w);
      ASSERT_TRUE(warm.stats.complete) << c.name;
      EXPECT_EQ(warm.front, cold.front) << c.name << " threads " << threads;
      EXPECT_TRUE(warm.certified) << c.name << ": " << warm.certificate_error;
    }
  }
}

// The in-process equivalent of piping --proof-out into `aspmt_check
// --require-unsat`: the stream must replay in trust mode (F steps accepted
// as feasibility evidence) with a verified global Unsat conclusion, both
// sequentially and from the 4-thread portfolio winner.
TEST(HybridDifferential, WarmProofsPassTheTrustModeChecker) {
  for (const std::size_t threads : {1U, 4U}) {
    const ExploreResult warm =
        run_warm(test::chain3_bus(), threads, nsga2_warm());
    ASSERT_TRUE(warm.stats.complete);
    ASSERT_FALSE(warm.proof.empty());
    cert::CheckOptions opts;
    opts.require_global_unsat = true;
    const cert::CheckResult check = cert::check_proof(warm.proof, opts);
    EXPECT_TRUE(check.ok) << "threads " << threads << ": " << check.error;
    EXPECT_TRUE(check.concluded_global_unsat) << "threads " << threads;
    EXPECT_GE(check.feasible_points, warm.stats.warm_seeds)
        << "every injected seed must have an F step in the winning stream";
  }
}

// --- seed generation -------------------------------------------------------

TEST(WarmSeeds, GeneratedSeedsAreAValidatedAntichainUnderTheExactFront) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult exact = explore(spec);
  ASSERT_TRUE(exact.stats.complete);
  const WarmStartResult ws = generate_warm_seeds(spec, nsga2_warm());
  EXPECT_GT(ws.candidates, 0U);
  EXPECT_GT(ws.heuristic_evaluations, 0U);
  ASSERT_FALSE(ws.seeds.empty());
  for (const WarmSeedCandidate& s : ws.seeds) {
    EXPECT_EQ(synth::validate_implementation(spec, s.impl), "");
    EXPECT_EQ(s.impl.objectives(), s.point);
    bool covered = false;
    for (const pareto::Vec& q : exact.front) {
      covered = covered || pareto::weakly_dominates(q, s.point);
    }
    EXPECT_TRUE(covered) << pareto::to_string(s.point)
                         << " beats the exact front — validation is broken";
  }
  for (const WarmSeedCandidate& a : ws.seeds) {
    for (const WarmSeedCandidate& b : ws.seeds) {
      if (&a == &b) continue;
      EXPECT_FALSE(pareto::weakly_dominates(a.point, b.point))
          << "seeds must form an antichain";
    }
  }
}

TEST(WarmSeeds, GenerationIsDeterministicForFixedSeed) {
  const synth::Specification spec = test::diamond_two_proc();
  const WarmStartResult a = generate_warm_seeds(spec, nsga2_warm(11));
  const WarmStartResult b = generate_warm_seeds(spec, nsga2_warm(11));
  ASSERT_EQ(a.seeds.size(), b.seeds.size());
  for (std::size_t i = 0; i < a.seeds.size(); ++i) {
    EXPECT_EQ(a.seeds[i].point, b.seeds[i].point);
  }
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.heuristic_evaluations, b.heuristic_evaluations);
}

// --- the adversarial injector: fake seeds must not get through -------------

/// An obviously fabricated candidate: a utopian point with an empty
/// implementation behind it.
WarmSeedCandidate utopian_fake() {
  WarmSeedCandidate c;
  c.point = {1, 1, 1};
  return c;
}

/// A mislabelled candidate: a genuine witness claiming a better vector than
/// it achieves.
WarmSeedCandidate mislabelled(const ExploreResult& cold) {
  WarmSeedCandidate c;
  c.impl = cold.witnesses.front();
  c.point = cold.front.front();
  c.point[0] -= 1;  // lie: one unit faster than reality
  return c;
}

/// A tampered candidate whose *fields* are self-consistent (objectives()
/// matches the claimed point) but whose schedule no longer satisfies the
/// specification — only full re-validation can catch this one.
WarmSeedCandidate tampered(const ExploreResult& cold) {
  WarmSeedCandidate c;
  c.impl = cold.witnesses.front();
  c.impl.latency -= 1;
  c.point = c.impl.objectives();
  return c;
}

TEST(WarmSeeds, FakeCandidatesAreRejectedByTheValidationGate) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions copts;
  const ExploreResult cold = explore(spec, copts);
  ASSERT_TRUE(cold.stats.complete);
  ASSERT_FALSE(cold.witnesses.empty());

  WarmStartOptions w;  // method Off: only the external injector runs
  w.external = {utopian_fake(), mislabelled(cold), tampered(cold)};
  const WarmStartResult ws = generate_warm_seeds(spec, w);
  EXPECT_EQ(ws.candidates, 3U);
  EXPECT_EQ(ws.rejected_invalid, 3U);
  EXPECT_TRUE(ws.seeds.empty());
}

TEST(WarmSeeds, DominatedValidCandidateIsDroppedNotInjected) {
  const synth::Specification spec = test::chain3_bus();
  // Exhaustively decode the 2^3 option genotypes and pick a strictly
  // dominated/dominating pair of *valid* implementations.
  std::vector<WarmSeedCandidate> all;
  for (std::size_t bits = 0; bits < 8; ++bits) {
    ea::Genotype g;
    g.option = {bits & 1U, (bits >> 1U) & 1U, (bits >> 2U) & 1U};
    g.priority = {0.5, 0.5, 0.5};
    WarmSeedCandidate c;
    if (!ea::decode_genotype(spec, g, c.impl)) continue;
    c.point = c.impl.objectives();
    all.push_back(std::move(c));
  }
  const WarmSeedCandidate* better = nullptr;
  const WarmSeedCandidate* worse = nullptr;
  for (const WarmSeedCandidate& a : all) {
    for (const WarmSeedCandidate& b : all) {
      if (a.point != b.point && pareto::weakly_dominates(a.point, b.point)) {
        better = &a;
        worse = &b;
      }
    }
  }
  ASSERT_NE(better, nullptr) << "fixture lost its dominated pair";

  WarmStartOptions w;
  w.external = {*worse, *better};
  const WarmStartResult ws = generate_warm_seeds(spec, w);
  EXPECT_EQ(ws.rejected_invalid, 0U);
  EXPECT_EQ(ws.rejected_dominated, 1U);
  ASSERT_EQ(ws.seeds.size(), 1U);
  EXPECT_EQ(ws.seeds.front().point, better->point);
}

TEST(WarmSeeds, DuplicateCandidatesCollapseToOneSeed) {
  const synth::Specification spec = test::two_proc_bus();
  const ExploreResult cold = explore(spec);
  ASSERT_FALSE(cold.witnesses.empty());
  WarmSeedCandidate real;
  real.impl = cold.witnesses.front();
  real.point = cold.front.front();
  WarmStartOptions w;
  w.external = {real, real};
  const WarmStartResult ws = generate_warm_seeds(spec, w);
  EXPECT_EQ(ws.seeds.size(), 1U);
  EXPECT_EQ(ws.rejected_dominated, 1U);
}

// End to end: a run fed nothing but adversarial seeds (plus the genuine
// NSGA-II pass) still lands on the exact front, still certifies, and the
// stats report the rejects instead of silently swallowing them.
TEST(WarmSeeds, AdversarialSeedsCannotPoisonTheArchive) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult cold = explore(spec);
  ASSERT_TRUE(cold.stats.complete);
  WarmStartOptions w = nsga2_warm();
  w.external = {utopian_fake(), mislabelled(cold), tampered(cold)};
  for (const std::size_t threads : {1U, 2U, 4U}) {
    const ExploreResult r = run_warm(spec, threads, w);
    ASSERT_TRUE(r.stats.complete) << "threads " << threads;
    EXPECT_EQ(r.front, cold.front) << "threads " << threads;
    EXPECT_TRUE(r.certified) << "threads " << threads << ": "
                             << r.certificate_error;
    EXPECT_GE(r.stats.warm_rejected, 3U) << "threads " << threads;
  }
}

TEST(WarmSeeds, StatsCountInjectedSeeds) {
  const ExploreResult r = run_warm(test::chain3_bus(), 1, nsga2_warm());
  ASSERT_TRUE(r.stats.complete);
  EXPECT_GT(r.stats.warm_seeds, 0U);
  // Every injected seed appears in the anytime discovery log.
  EXPECT_GE(r.discoveries.size(), r.stats.warm_seeds);
}

// --- flag parsing ----------------------------------------------------------

TEST(WarmStartMethodNames, ParseRoundTrips) {
  for (const WarmStartMethod m : {WarmStartMethod::Off, WarmStartMethod::Nsga2,
                                  WarmStartMethod::Sampler}) {
    const auto parsed = parse_warm_start_method(warm_start_method_name(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  EXPECT_FALSE(parse_warm_start_method("anneal").has_value());
  EXPECT_FALSE(parse_warm_start_method("").has_value());
}

}  // namespace
}  // namespace aspmt::dse
