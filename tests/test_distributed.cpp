// Distributed sharding is an *exact* method: whatever the shard/process
// split, the merged front must be point-for-point identical to the
// single-process explorer's and the merged certificate must verify.  These
// tests enforce that over the full {threads} x {processes} matrix on every
// synth fixture with forked shard workers (ASPMT_DSE_BIN, the real CLI, so
// the fork/exec + pipe + RESULT path runs end to end), feed the
// coordinator a worker whose result has points of the wrong length, check
// that it refuses the options a worker would drop, and drive the certified
// merge with adversarial shard results — forged witnesses, truncated
// proofs, overlapping, empty and missing bands — that must all be rejected.
#include "dse/distributed.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cert/certify.hpp"
#include "dse/budget.hpp"
#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/fault.hpp"
#include "dse/parallel_explorer.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "pareto/point.hpp"
#include "synth/specio.hpp"
#include "synth/validator.hpp"
#include "synth_fixtures.hpp"

#ifndef ASPMT_DSE_BIN
#error "tests/CMakeLists.txt must define ASPMT_DSE_BIN"
#endif

namespace aspmt::dse {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

struct Fixture {
  const char* name;
  synth::Specification spec;
};

std::vector<Fixture> fixtures() {
  std::vector<Fixture> f;
  f.push_back({"singleton", test::singleton()});
  f.push_back({"two_proc_bus", test::two_proc_bus()});
  f.push_back({"chain3_bus", test::chain3_bus()});
  f.push_back({"diamond_two_proc", test::diamond_two_proc()});
  return f;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "aspmt_dist_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void expect_tiling(const std::vector<Shard>& shards) {
  ASSERT_FALSE(shards.empty());
  EXPECT_EQ(shards.front().lo, kMin);
  EXPECT_EQ(shards.back().hi, kMax);
  for (std::size_t i = 0; i + 1 < shards.size(); ++i) {
    ASSERT_LT(shards[i].hi, kMax);
    EXPECT_EQ(shards[i + 1].lo, shards[i].hi + 1)
        << "bands " << i << " and " << i + 1 << " do not meet";
  }
}

// ---- shard_objective_space -------------------------------------------------

TEST(Distributed, SingleShardSplitIsOneUnboundedBand) {
  const std::vector<Shard> shards =
      shard_objective_space(test::chain3_bus(), 1, 1);
  ASSERT_EQ(shards.size(), 1U);
  EXPECT_EQ(shards[0].lo, kMin);
  EXPECT_EQ(shards[0].hi, kMax);
}

TEST(Distributed, BandsTileTheObjectiveLine) {
  const synth::Specification spec = test::chain3_bus();
  for (const std::size_t want : {2U, 3U, 4U}) {
    const std::vector<Shard> shards = shard_objective_space(spec, want, 1);
    EXPECT_LE(shards.size(), want);
    expect_tiling(shards);
  }
}

TEST(Distributed, DegenerateSampleCollapsesToFewerShards) {
  // The singleton fixture has one design point: every sampled objective
  // value coincides, so no quantile split exists and the request collapses
  // to a single unbounded band instead of fabricating empty shards.
  const std::vector<Shard> shards =
      shard_objective_space(test::singleton(), 4, 1);
  ASSERT_EQ(shards.size(), 1U);
  EXPECT_EQ(shards[0].lo, kMin);
  EXPECT_EQ(shards[0].hi, kMax);
}

TEST(Distributed, SplitSampleDoublesAsValidatedSeedPool) {
  const synth::Specification spec = test::chain3_bus();
  std::vector<WarmSeedCandidate> seeds;
  const std::vector<Shard> shards =
      shard_objective_space(spec, 2, 1, 256, 1, &seeds);
  expect_tiling(shards);
  ASSERT_FALSE(seeds.empty());
  for (const WarmSeedCandidate& s : seeds) {
    EXPECT_EQ(synth::validate_implementation(spec, s.impl), "");
    EXPECT_EQ(s.impl.objectives(), s.point);
  }
}

// ---- seed-pool handoff -----------------------------------------------------

// Process mode hands the split sample to every worker as an `aspmt-ckpt`
// file stamped with the spec's fingerprint and section digests; the worker
// turns it back into seeds with checkpoint_seeds.  The sample must meet the
// checkpoint parser's invariants (sorted antichain, witnesses matching their
// points) and come back seed for seed.
TEST(Distributed, SeedPoolSurvivesTheCheckpointHandoff) {
  const synth::Specification spec = test::chain3_bus();
  std::vector<WarmSeedCandidate> seeds;
  (void)shard_objective_space(spec, 2, 1, 256, 1, &seeds);
  ASSERT_FALSE(seeds.empty());

  Checkpoint pool;
  pool.spec_fingerprint = spec_fingerprint(spec);
  pool.has_sections = true;
  pool.sections = spec_sections(spec);
  for (const WarmSeedCandidate& s : seeds) {
    pool.points.push_back(s.point);
    pool.witnesses.push_back(s.impl);
  }
  Checkpoint loaded;
  ASSERT_EQ(parse_checkpoint(to_text(pool), loaded), "");
  const std::vector<WarmSeedCandidate> back = checkpoint_seeds(loaded, spec);
  ASSERT_EQ(back.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(back[i].point, seeds[i].point);
    EXPECT_EQ(back[i].impl.option_of_task, seeds[i].impl.option_of_task);
    EXPECT_EQ(back[i].impl.start, seeds[i].impl.start);
  }
}

// ---- RESULT payload --------------------------------------------------------

TEST(Distributed, ShardResultPayloadRoundTrips) {
  const synth::Specification spec = test::chain3_bus();
  ParallelExploreOptions opts;
  opts.threads = 2;
  opts.common.certify = true;
  const ParallelExploreResult r = explore_parallel(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
  ASSERT_FALSE(r.discovery_witnesses.empty());
  ASSERT_FALSE(r.base.proof.empty());

  const std::string text = shard_result_to_text(r);
  ShardResultPayload p;
  ASSERT_EQ(parse_shard_result(text, p), "");
  EXPECT_TRUE(p.complete);
  EXPECT_EQ(p.models, r.base.stats.models);
  EXPECT_EQ(p.front, r.base.front);
  EXPECT_EQ(p.proof, r.base.proof);
  ASSERT_EQ(p.discoveries.size(), r.discovery_witnesses.size());
  for (std::size_t i = 0; i < p.discoveries.size(); ++i) {
    EXPECT_EQ(p.discoveries[i].first, r.discovery_witnesses[i].first);
    EXPECT_EQ(p.discoveries[i].second.option_of_task,
              r.discovery_witnesses[i].second.option_of_task);
  }
}

TEST(Distributed, TruncatedShardResultIsRejected) {
  const synth::Specification spec = test::two_proc_bus();
  ParallelExploreOptions opts;
  opts.common.certify = true;
  const ParallelExploreResult r = explore_parallel(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
  const std::string text = shard_result_to_text(r);
  ShardResultPayload p;
  // Every prefix that cuts into the proof bytes or the trailer must fail:
  // the length-prefixed framing makes truncation detectable, not silent.
  EXPECT_NE(parse_shard_result(text.substr(0, text.size() / 2), p), "");
  EXPECT_NE(parse_shard_result(text.substr(0, text.size() - 5), p), "");
  EXPECT_NE(parse_shard_result("", p), "");
}

// ---- the equivalence matrix ------------------------------------------------

TEST(Distributed, FrontMatchesSingleProcessAcrossThreadByProcessMatrix) {
  for (const Fixture& f : fixtures()) {
    const ExploreResult seq = explore(f.spec);
    ASSERT_TRUE(seq.stats.complete) << f.name;
    test::expect_front_shape(f.spec, seq);
    for (const std::size_t threads : {1U, 2U, 4U}) {
      for (const std::size_t processes : {1U, 2U, 4U}) {
        DistributedOptions opts;
        opts.worker_path = ASPMT_DSE_BIN;
        opts.processes = processes;
        opts.base.threads = threads;
        opts.base.common.certify = true;
        const DistributedResult r = explore_distributed(f.spec, opts);
        ASSERT_TRUE(r.base.stats.complete)
            << f.name << " t" << threads << " p" << processes;
        test::expect_front_shape(f.spec, r.base);
        EXPECT_EQ(r.base.front, seq.front)
            << f.name << " t" << threads << " p" << processes;
        EXPECT_TRUE(r.base.certified)
            << f.name << " t" << threads << " p" << processes << ": "
            << r.base.certificate_error;
        for (const ShardReport& s : r.shards) {
          EXPECT_TRUE(s.completed) << f.name << " shard " << s.shard;
          EXPECT_EQ(s.attempts, 1U) << f.name << " shard " << s.shard;
        }
      }
    }
  }
}

TEST(Distributed, MergedWitnessesValidateAndMatchTheFront) {
  const synth::Specification spec = test::chain3_bus();
  DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.base.common.certify = true;
  const DistributedResult r = explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.certified) << r.base.certificate_error;
  test::expect_front_shape(spec, r.base);
  ASSERT_EQ(r.base.witnesses.size(), r.base.front.size());
  for (std::size_t i = 0; i < r.base.front.size(); ++i) {
    EXPECT_EQ(synth::validate_implementation(spec, r.base.witnesses[i]), "");
    EXPECT_EQ(r.base.witnesses[i].objectives(), r.base.front[i]);
  }
}

TEST(Distributed, MergedProofContainerRoundTripsAndReCertifies) {
  const synth::Specification spec = test::chain3_bus();
  DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.base.common.certify = true;
  const DistributedResult r = explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.certified) << r.base.certificate_error;
  test::expect_front_shape(spec, r.base);
  ASSERT_FALSE(r.base.proof.empty());
  EXPECT_EQ(r.base.proof.compare(0, cert::kMergedProofHeader.size(),
                                 cert::kMergedProofHeader),
            0);
  std::size_t objective = 99;
  std::vector<cert::ShardProof> shards;
  ASSERT_EQ(cert::parse_merged_proof(r.base.proof, objective, shards), "");
  EXPECT_EQ(objective, 1U);
  EXPECT_EQ(shards.size(), r.shards.size());
}

TEST(Distributed, CoordinatorEmitsShardLifecycleEvents) {
  struct Capture final : obs::EventSink {
    std::vector<obs::Event> events;
    bool flushed = false;
    void on_event(const obs::Event& e) override { events.push_back(e); }
    void flush() override { flushed = true; }
  } capture;

  const synth::Specification spec = test::chain3_bus();
  DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.base.common.sink = &capture;
  const DistributedResult r = explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
  EXPECT_TRUE(capture.flushed);

  std::size_t spawns = 0;
  std::size_t exits = 0;
  std::size_t run_start = 0;
  std::size_t run_end = 0;
  for (const obs::Event& e : capture.events) {
    switch (e.kind) {
      case obs::EventKind::ShardSpawn: ++spawns; break;
      case obs::EventKind::ShardExit: ++exits; break;
      case obs::EventKind::RunStart: ++run_start; break;
      case obs::EventKind::RunEnd: ++run_end; break;
      default: break;
    }
  }
  EXPECT_EQ(run_start, 1U);
  EXPECT_EQ(run_end, 1U);
  EXPECT_EQ(spawns, r.shards.size());
  EXPECT_EQ(exits, r.shards.size());
}

// ---- adversarial merged certification ---------------------------------------
//
// Built from a *real* 2-shard certified run: each adversarial case tampers
// with exactly one aspect of otherwise-valid shard results, so a rejection
// can only come from the check under test.

struct TwoShardRun {
  synth::Specification spec;
  std::vector<Shard> bands;
  std::vector<std::pair<pareto::Vec, synth::Implementation>> discoveries;
  std::vector<pareto::Vec> front;
  std::vector<cert::ShardProof> proofs;
};

TwoShardRun real_two_shard_run() {
  TwoShardRun run;
  run.spec = test::chain3_bus();
  run.bands = shard_objective_space(run.spec, 2, 1);
  EXPECT_EQ(run.bands.size(), 2U);

  std::vector<pareto::Vec> union_points;
  for (const Shard& band : run.bands) {
    ParallelExploreOptions opts;
    opts.common.certify = true;
    opts.shard.active = true;
    opts.shard.objective = 1;
    opts.shard.lo = band.lo;
    opts.shard.hi = band.hi;
    const ParallelExploreResult r = explore_parallel(run.spec, opts);
    EXPECT_TRUE(r.base.stats.complete);
    test::expect_front_shape(run.spec, r.base);
    for (const auto& [point, impl] : r.discovery_witnesses) {
      bool seen = false;
      for (const auto& [p, unused] : run.discoveries) seen = seen || p == point;
      if (!seen) run.discoveries.emplace_back(point, impl);
    }
    for (const pareto::Vec& p : r.base.front) union_points.push_back(p);
    run.proofs.push_back(cert::ShardProof{band.lo, band.hi, r.base.proof});
  }
  run.front = pareto::non_dominated_filter(std::move(union_points));
  return run;
}

TEST(Distributed, AdversarialShardResultsAreRejected) {
  const TwoShardRun run = real_two_shard_run();
  ASSERT_EQ(run.proofs.size(), 2U);

  // Baseline: the untampered run certifies — every rejection below is
  // attributable to its single tampered aspect.
  {
    const cert::CertifyResult ok = cert::certify(
        run.spec, run.discoveries, run.front, run.proofs, 1);
    ASSERT_TRUE(ok.certified) << ok.error;
  }

  // Forged witness: a discovery claims objectives its implementation does
  // not realise.
  {
    auto discoveries = run.discoveries;
    ASSERT_FALSE(discoveries.empty());
    discoveries.front().first[0] += 1;
    const cert::CertifyResult r = cert::certify(
        run.spec, discoveries, run.front, run.proofs, 1);
    EXPECT_FALSE(r.certified);
    EXPECT_FALSE(r.error.empty());
  }

  // Dropped witness: a discovery with an empty implementation cannot stand
  // in for the proof's F step.
  {
    auto discoveries = run.discoveries;
    discoveries.front().second = synth::Implementation{};
    const cert::CertifyResult r = cert::certify(
        run.spec, discoveries, run.front, run.proofs, 1);
    EXPECT_FALSE(r.certified);
  }

  // Truncated proof: shard 1's stream loses its tail (and with it the
  // verified Unsat conclusion).
  {
    auto proofs = run.proofs;
    ASSERT_GT(proofs[1].proof.size(), 40U);
    proofs[1].proof.resize(proofs[1].proof.size() / 2);
    const cert::CertifyResult r = cert::certify(
        run.spec, run.discoveries, run.front, proofs, 1);
    EXPECT_FALSE(r.certified);
  }

  // Overlapping bands: shard 1 claims to start inside shard 0's band, so
  // the claimed bands no longer tile the objective line.
  {
    auto proofs = run.proofs;
    proofs[1].lo = proofs[0].lo;
    const cert::CertifyResult r = cert::certify(
        run.spec, run.discoveries, run.front, proofs, 1);
    EXPECT_FALSE(r.certified);
  }

  // Missing band: dropping a shard leaves a hole no Unsat covers.
  {
    const std::vector<cert::ShardProof> proofs{run.proofs[0]};
    const cert::CertifyResult r = cert::certify(
        run.spec, run.discoveries, run.front, proofs, 1);
    EXPECT_FALSE(r.certified);
  }

  // Band claim wider than the proven box: the bands still tile, but shard
  // 0's proof only established exhaustion up to its real hi.
  {
    auto proofs = run.proofs;
    proofs[0].hi += 5;
    proofs[1].lo += 5;
    const cert::CertifyResult r = cert::certify(
        run.spec, run.discoveries, run.front, proofs, 1);
    EXPECT_FALSE(r.certified);
  }

  // Forged front: an extra (dominated) point smuggled into the merged front
  // fails the front == non-dominated-filter(union) check.
  {
    auto front = run.front;
    ASSERT_FALSE(front.empty());
    pareto::Vec extra = front.front();
    for (std::int64_t& v : extra) v += 1;
    front.push_back(extra);
    const cert::CertifyResult r = cert::certify(
        run.spec, run.discoveries, front, run.proofs, 1);
    EXPECT_FALSE(r.certified);
  }
}

TEST(Distributed, UnconditionalBoundInOneBandIsRejected) {
  // An unconditional bound is part of the declared system, so a band that
  // declares one the others lack solved a smaller system.  Only the
  // declaration-core comparison sees it: the stream itself still verifies.
  const TwoShardRun run = real_two_shard_run();
  ASSERT_EQ(run.proofs.size(), 2U);
  const std::string& band1 = run.proofs[1].proof;
  const std::size_t sum0 = band1.find("\nS 0 ");
  ASSERT_NE(sum0, std::string::npos) << "band 1 defines no sum 0";
  const std::size_t after_sum0 = band1.find('\n', sum0 + 1) + 1;
  const std::size_t first_input = band1.find("\nI ");
  ASSERT_NE(first_input, std::string::npos);
  const std::string input = band1.substr(
      first_input + 1, band1.find('\n', first_input + 1) - first_input);

  // The extra line, as the checker reads it, in three spellings: spacing
  // must not hide a line from the core.
  for (const std::pair<std::size_t, std::string>& extra :
       {std::pair<std::size_t, std::string>{after_sum0, "SB 0 1000000 0\n"},
        {after_sum0, "SB\t0\t1000000\t0\n"},
        {first_input + 1, " " + input}}) {
    auto proofs = run.proofs;
    proofs[1].proof.insert(extra.first, extra.second);
    const cert::CertifyResult r =
        cert::certify(run.spec, run.discoveries, run.front, proofs, 1);
    EXPECT_FALSE(r.certified) << extra.second;
    EXPECT_EQ(r.error,
              "shard 1 solved a different constraint system than shard 0")
        << extra.second;
    const cert::ShardsCheck trusting = cert::check_shards(proofs, 1, {});
    EXPECT_EQ(trusting.error, r.error) << extra.second;
  }
}

TEST(Distributed, BandClaimsMustTileWithoutOverlap) {
  // A global Unsat proves the whole line empty, so every band claim below
  // is covered by its stream and only the tiling decides.  No discoveries:
  // the merged front is empty.
  const std::string proof =
      "p aspmt 1\nS 0 1 1 1\nO 0 L 0\nI 1 0\nI -1 0\nU 0\n";
  const synth::Specification spec;
  const auto certify = [&](std::vector<cert::ShardProof> shards) {
    const cert::CertifyResult merged = cert::certify(spec, {}, {}, shards, 0);
    // What `aspmt_check` runs on a merged container: the same verdict.
    const cert::ShardsCheck trusting = cert::check_shards(shards, 0, {});
    EXPECT_EQ(trusting.error, merged.error);
    return merged;
  };

  const cert::CertifyResult two = certify({{kMin, 5, proof}, {6, kMax, proof}});
  EXPECT_TRUE(two.certified) << two.error;
  EXPECT_EQ(two.shards_checked, 2U);

  const cert::CertifyResult empty_middle =
      certify({{kMin, 5, proof}, {6, 5, proof}, {6, kMax, proof}});
  EXPECT_FALSE(empty_middle.certified);
  EXPECT_EQ(empty_middle.error, "shard band 6 > 5 is empty");

  // Both claim the full line: the first band's end is INT64_MAX, so a
  // naive "next starts at end + 1" test overflows instead of rejecting.
  const cert::CertifyResult duplicate =
      certify({{kMin, kMax, proof}, {kMin, kMax, proof}});
  EXPECT_FALSE(duplicate.certified);
  EXPECT_EQ(duplicate.error, "shard bands overlap");

  // The same global Unsat with its axis on a difference-logic node: the
  // checker extracts no shard box there, and the global Unsat alone covers
  // every band.
  const std::string dl_proof =
      "p aspmt 1\nN 0\nO 0 D 0\nI 1 0\nI -1 0\nU 0\n";
  const cert::CertifyResult dl =
      certify({{kMin, 5, dl_proof}, {6, kMax, dl_proof}});
  EXPECT_TRUE(dl.certified) << dl.error;
  EXPECT_EQ(dl.shards_checked, 2U);
}

// ---- worker processes ------------------------------------------------------

TEST(Distributed, ProcessModeMatchesSingleProcessAndCertifies) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult seq = explore(spec);
  ASSERT_TRUE(seq.stats.complete);
  test::expect_front_shape(spec, seq);

  DistributedOptions opts;
  opts.processes = 2;
  opts.base.threads = 1;
  opts.base.common.certify = true;
  opts.worker_path = ASPMT_DSE_BIN;
  const DistributedResult r = explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
  EXPECT_EQ(r.base.front, seq.front);
  EXPECT_TRUE(r.base.certified) << r.base.certificate_error;
  for (const ShardReport& s : r.shards) {
    EXPECT_TRUE(s.completed) << "shard " << s.shard << ": " << s.error;
    EXPECT_EQ(s.attempts, 1U);
    EXPECT_GT(s.seconds, 0.0);
  }
}

TEST(Distributed, DeadlineSpecCertifiesAcrossBands) {
  // bus_small under a hard deadline: every band's stream declares the
  // spec's own unconditional `NB <makespan> 30 0`, which is part of the
  // declared system, so the bands certify like the one-process run.
  const synth::Specification spec =
      synth::parse_specification(test::edited_bus_small_text(
          "# aspmt-dse specification",
          "# aspmt-dse specification\nlatency_bound 30"));
  ASSERT_EQ(spec.latency_bound, 30);
  const ExploreResult seq = explore(spec);
  ASSERT_TRUE(seq.stats.complete);
  test::expect_front_shape(spec, seq);

  DistributedOptions opts;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.processes = 2;
  opts.shards = 3;
  opts.base.common.certify = true;
  const DistributedResult r = explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.stats.complete);
  test::expect_front_shape(spec, r.base);
  EXPECT_EQ(r.base.front, seq.front);
  EXPECT_TRUE(r.base.certified) << r.base.certificate_error;

  std::size_t objective = 0;
  std::vector<cert::ShardProof> shards;
  ASSERT_EQ(cert::parse_merged_proof(r.base.proof, objective, shards), "");
  EXPECT_GT(shards.size(), 1U);
  for (const cert::ShardProof& shard : shards) {
    std::istringstream lines(shard.proof);
    bool deadline = false;
    for (std::string line; std::getline(lines, line);) {
      deadline =
          deadline || (line.starts_with("NB ") && line.ends_with(" 30 0"));
    }
    EXPECT_TRUE(deadline) << "band [" << shard.lo << ", " << shard.hi
                          << "] declares no unconditional deadline";
  }
}

TEST(Distributed, KilledWorkerIsRequeuedAndConvergesToTheSameFront) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult seq = explore(spec);
  ASSERT_TRUE(seq.stats.complete);
  test::expect_front_shape(spec, seq);

  obs::MetricsRegistry metrics;
  DistributedOptions opts;
  opts.processes = 2;
  opts.base.threads = 1;
  opts.base.common.certify = true;
  opts.base.common.metrics = &metrics;
  opts.worker_path = ASPMT_DSE_BIN;
  opts.sabotage_shard = 0;  // first attempt self-kills after one point
  opts.sabotage_after_points = 1;
  const DistributedResult r = explore_distributed(spec, opts);
  ASSERT_TRUE(r.base.stats.complete)
      << (r.base.errors.empty() ? "" : r.base.errors.front());
  test::expect_front_shape(spec, r.base);
  EXPECT_EQ(r.base.front, seq.front);
  EXPECT_TRUE(r.base.certified) << r.base.certificate_error;
  ASSERT_FALSE(r.shards.empty());
  EXPECT_EQ(r.shards[0].attempts, 2U) << "sabotaged shard was not requeued";
  EXPECT_TRUE(r.shards[0].completed) << r.shards[0].error;
  EXPECT_EQ(metrics.counter("distributed.requeues").value(), 1U);
  // Total launches across both shards: the sabotaged one twice, the other
  // once (supervised retry bookkeeping, shared with the service layer).
  EXPECT_EQ(metrics.counter("distributed.requeue_attempts").value(), 3U);
}

// A worker whose RESULT parses but carries a point with fewer entries than
// the specification has axes fails its shard (requeued, then quarantined)
// instead of reaching the merge, which compares points axis by axis.
TEST(Distributed, ShortPointInAWorkerResultFailsItsShard) {
  const synth::Specification spec = test::chain3_bus();
  ASSERT_EQ(spec.axis_count(), 3U);
  const std::string payload_path = temp_path("short_point.result");
  const std::string script_path = temp_path("short_point_worker.sh");
  const std::string payload =
      "complete 1\nmodels 1\nseconds 0\ndiscoveries 0\n"
      "front 1\nf 4544 10\nproof 0\nend\n";
  ShardResultPayload parsed;
  ASSERT_EQ(parse_shard_result(payload, parsed), "") << "payload must parse";
  std::ofstream(payload_path) << payload;
  std::ofstream(script_path) << "#!/bin/sh\n"
                             << "echo 'ASPMT-SHARD 1'\n"
                             << "echo 'RESULT " << payload.size() << "'\n"
                             << "cat '" << payload_path << "'\n";
  std::filesystem::permissions(script_path,
                               std::filesystem::perms::owner_all);

  DistributedOptions opts;
  opts.worker_path = script_path;
  opts.processes = 2;
  DistributedResult r;
  ASSERT_NO_THROW(r = explore_distributed(spec, opts));
  EXPECT_FALSE(r.base.stats.complete);
  EXPECT_EQ(r.base.stats.reason, StopReason::WorkerFailure);
  EXPECT_TRUE(r.base.front.empty());
  ASSERT_FALSE(r.shards.empty());
  for (const ShardReport& s : r.shards) {
    EXPECT_FALSE(s.completed) << "shard " << s.shard;
    EXPECT_EQ(s.attempts, opts.retry.max_attempts) << "shard " << s.shard;
    EXPECT_NE(s.error.find("bad shard result"), std::string::npos) << s.error;
    EXPECT_NE(s.error.find("has 2 objectives"), std::string::npos) << s.error;
    EXPECT_NE(s.error.find("3 axes"), std::string::npos) << s.error;
  }
  std::remove(payload_path.c_str());
  std::remove(script_path.c_str());
}

// The launch line forwards only the thread count, seed, time limit, archive
// kind, partial evaluation and certify.  Every other option a caller can
// set would be dropped by the workers, so the coordinator refuses it by name
// before it writes anything into its work directory or starts a worker.
TEST(Distributed, OptionsAWorkerWouldDropAreRefused) {
  const synth::Specification spec = test::singleton();
  Budget budget;
  const FaultPlan fault;
  const struct {
    const char* field;
    std::function<void(ParallelExploreOptions&)> set;
  } cases[] = {
      {"base.common.drill_down",
       [](ParallelExploreOptions& b) { b.common.drill_down = false; }},
      {"base.common.objective_floors",
       [](ParallelExploreOptions& b) { b.common.objective_floors = false; }},
      {"base.common.warm_start",
       [](ParallelExploreOptions& b) {
         b.common.warm_start.method = WarmStartMethod::Sampler;
       }},
      {"base.common.conflict_budget",
       [](ParallelExploreOptions& b) { b.common.conflict_budget = 50; }},
      {"base.common.mem_limit_mb",
       [](ParallelExploreOptions& b) { b.common.mem_limit_mb = 1; }},
      {"base.common.budget",
       [&](ParallelExploreOptions& b) { b.common.budget = &budget; }},
      {"base.common.checkpoint_path",
       [](ParallelExploreOptions& b) {
         b.common.checkpoint_path = temp_path("dropped.ckpt");
       }},
      {"base.common.clause_replay",
       [](ParallelExploreOptions& b) {
         b.common.clause_replay.clauses.push_back({1});
       }},
      {"base.common.fault",
       [&](ParallelExploreOptions& b) { b.common.fault = &fault; }},
      {"base.shard",
       [](ParallelExploreOptions& b) { b.shard.active = true; }},
  };
  const std::filesystem::path dir = temp_path("dropped_options");
  for (const auto& c : cases) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    DistributedOptions opts;
    opts.worker_path = ASPMT_DSE_BIN;
    opts.work_dir = dir.string();
    opts.split_sample_budget = 16;
    c.set(opts.base);
    try {
      (void)explore_distributed(spec, opts);
      ADD_FAILURE() << c.field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(std::filesystem::is_empty(dir))
        << c.field << ": the run prepared its workers";
  }
  std::filesystem::remove_all(dir);
}

TEST(Distributed, RemovedCliAliasesAreHardErrors) {
  const std::string err_path = temp_path("alias_stderr.txt");
  const std::string cmd = std::string(ASPMT_DSE_BIN) +
                          " explore missing.txt --proof=x 2>" + err_path;
  const int status = std::system(cmd.c_str());
  ASSERT_NE(status, -1);
  EXPECT_NE(status, 0) << "--proof must be a hard error";
  const std::string err = slurp(err_path);
  EXPECT_NE(err.find("--proof was removed"), std::string::npos) << err;
  EXPECT_NE(err.find("--proof-out"), std::string::npos) << err;
  std::remove(err_path.c_str());

  const std::string cmd2 = std::string(ASPMT_DSE_BIN) +
                           " explore missing.txt --checkpoint=x 2>" + err_path;
  EXPECT_NE(std::system(cmd2.c_str()), 0);
  const std::string err2 = slurp(err_path);
  EXPECT_NE(err2.find("--checkpoint-out"), std::string::npos) << err2;
  std::remove(err_path.c_str());

  // The in-process shard backend is gone; its flag names itself.
  const std::string cmd3 = std::string(ASPMT_DSE_BIN) +
                           " explore missing.txt --shard-workers 2"
                           " --shards-in-process 2>" + err_path;
  const int status3 = std::system(cmd3.c_str());
  ASSERT_TRUE(WIFEXITED(status3));
  EXPECT_EQ(WEXITSTATUS(status3), 2);
  const std::string err3 = slurp(err_path);
  EXPECT_NE(err3.find("--shards-in-process was removed"), std::string::npos)
      << err3;
  std::remove(err_path.c_str());

  // So is the general-purpose ASP subcommand; it reads nothing.
  const std::string cmd4 =
      std::string(ASPMT_DSE_BIN) + " asp x.lp 2>" + err_path;
  const int status4 = std::system(cmd4.c_str());
  ASSERT_TRUE(WIFEXITED(status4));
  EXPECT_EQ(WEXITSTATUS(status4), 2);
  const std::string err4 = slurp(err_path);
  EXPECT_NE(err4.find("asp subcommand was removed"), std::string::npos) << err4;
  std::remove(err_path.c_str());
}

/// Run the CLI with `args` (behind `prefix`, e.g. a `timeout`), stdout and
/// stderr captured into `out`; returns the exit status.  The capture file is per test: ctest runs tests in
/// parallel processes.
int run_cli(const std::string& args, std::string& out,
            const std::string& prefix = "") {
  const std::string log =
      ::testing::TempDir() + "aspmt_cli_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".log";
  const int status = std::system((prefix + ASPMT_DSE_BIN + " " + args + " >" +
                                  log + " 2>&1")
                                     .c_str());
  out = slurp(log);
  std::remove(log.c_str());
  return status == -1 || !WIFEXITED(status) ? -1 : WEXITSTATUS(status);
}

TEST(Cli, EveryModeNamesTheFlagsItCannotHonour) {
  const std::string spec = temp_path("cli_reject.spec");
  synth::save_specification(test::chain3_bus(), spec);
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--threads 2 --epsilon 1,1,1", "--epsilon"},
      {"--resume a --reexplore-from b", "--resume"},
      {"--shard-objective 2", "--shard-objective"},
      {"--shard-workers 2 --epsilon 1,1,1", "--epsilon"},
      {"--shard-workers 2 --warm-start nsga2", "--warm-start"},
      {"--shard-workers 2 --conflict-budget 10", "--conflict-budget"},
      {"--shard-workers 2 --mem-limit-mb 100", "--mem-limit-mb"},
      {"--shards 2 --checkpoint-out x", "--checkpoint-out"},
      {"--shards 2 --resume x", "--resume"},
      // A malformed value names the flag and the value before any work
      // starts: no fraction truncated, no negative count wrapped around.
      {"--threads 2.5", "--threads '2.5'"},
      {"--threads abc", "--threads 'abc'"},
      {"--shard-workers=-2", "--shard-workers '-2'"},
      {"--time-limit 1s", "--time-limit '1s'"},
      {"--epsilon 1,x,1", "--epsilon '1,x,1'"},
      // A flag the mode does not read is named, not dropped: a misspelt
      // --certify would otherwise run uncertified and exit 0.
      {"--certfy", "--certfy"},
  };
  for (const auto& c : cases) {
    std::string out;
    // `timeout` turns a hang into a failure instead of a stuck test.
    EXPECT_EQ(run_cli("explore " + spec + " " + c.args, out, "timeout 20 "), 2)
        << c.args << ": " << out;
    EXPECT_NE(out.find(c.flag), std::string::npos) << c.args << ": " << out;
  }
  // The service CLI shares the flag parser.
  const int status = std::system(
      ("timeout 20 " + std::string(ASPMT_SERVED_BIN) + " serve --socket " +
       temp_path("cli_flags.sock") + " --journal " +
       temp_path("cli_flags_journal") + " --workers 2.5 >/dev/null 2>&1")
          .c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  // So does a flag the command does not read, before it connects.
  const int typo = std::system(
      ("timeout 20 " + std::string(ASPMT_SERVED_BIN) + " status --socket " +
       temp_path("cli_flags.sock") + " --jbo j-1 >/dev/null 2>&1")
          .c_str());
  ASSERT_TRUE(WIFEXITED(typo));
  EXPECT_EQ(WEXITSTATUS(typo), 2);
  std::remove(spec.c_str());
}

TEST(Cli, ResumeCertifiesAndKeepsEpsilonAtOneThread) {
  const std::string spec = temp_path("cli_resume.spec");
  const std::string ckpt = temp_path("cli_resume.ckpt");
  const std::string cold = temp_path("cli_cold.front");
  const std::string warm = temp_path("cli_warm.front");
  synth::save_specification(test::diamond_two_proc(), spec);
  std::string out;
  ASSERT_EQ(run_cli("explore " + spec + " --front-out " + cold +
                        " --checkpoint-out " + ckpt,
                    out),
            0)
      << out;
  for (const char* threads : {"1", "2"}) {
    EXPECT_EQ(run_cli("explore " + spec + " --resume " + ckpt +
                          " --certify --threads " + threads + " --front-out " +
                          warm,
                      out),
              0)
        << out;
    EXPECT_NE(out.find("certified: yes"), std::string::npos) << out;
    EXPECT_EQ(slurp(warm), slurp(cold)) << "threads " << threads;
  }
  EXPECT_EQ(run_cli("explore " + spec + " --resume " + ckpt + " --epsilon 0,0,0",
                    out),
            0)
      << out;
  EXPECT_NE(out.find("eps-approximate set"), std::string::npos) << out;
  for (const std::string& path : {spec, ckpt, cold, warm}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace aspmt::dse
