// Checkpoint format round-trips byte-for-byte, corruption of any kind is
// rejected (degrading to a cold start), and a run killed by its budget and
// restarted from its checkpoint — through reuse_checkpoint, the one restart
// path of the CLI, dse::Session and the shard requeue — reaches exactly the
// same final front as an uninterrupted run, certified.
#include "dse/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "dse/explorer.hpp"
#include "dse/fault.hpp"
#include "dse/parallel_explorer.hpp"
#include "dse/respec.hpp"
#include "dse/session.hpp"
#include "synth_fixtures.hpp"

namespace aspmt::dse {
namespace {

/// Same FNV-1a the checkpoint writer uses — lets the tests hand-craft
/// version-1 and deliberately damaged bodies with valid checksums.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string with_checksum(std::string body) {
  body += "end ";
  body += std::to_string(fnv1a(body));
  body += '\n';
  return body;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "aspmt_ckpt_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Restart `spec` from `ckpt` through reexplore (reuse_checkpoint, then the
/// portfolio at `threads`; one thread is dse::explore's search), certified.
ExploreResult restart(const Checkpoint& ckpt, const synth::Specification& spec,
                      std::size_t threads) {
  ReexploreOptions ro;
  ro.base.threads = threads;
  ro.base.common.certify = true;
  return reexplore(ckpt, spec, ro).base;
}

/// A checkpoint with real witnesses, produced by an actual exploration.
Checkpoint explored_checkpoint(const synth::Specification& spec) {
  const ExploreResult r = explore(spec);
  EXPECT_TRUE(r.stats.complete);
  Checkpoint c;
  c.spec_fingerprint = spec_fingerprint(spec);
  c.points = r.front;
  c.witnesses = r.witnesses;
  return c;
}

TEST(Checkpoint, TextRoundTripIsByteIdentical) {
  const Checkpoint a = explored_checkpoint(test::chain3_bus());
  const std::string text = to_text(a);
  Checkpoint b;
  ASSERT_EQ(parse_checkpoint(text, b), "");
  EXPECT_EQ(b.spec_fingerprint, a.spec_fingerprint);
  EXPECT_EQ(b.points, a.points);
  ASSERT_EQ(b.witnesses.size(), a.witnesses.size());
  // The decisive property: serialize(parse(serialize(x))) == serialize(x).
  EXPECT_EQ(to_text(b), text);
}

TEST(Checkpoint, FileRoundTripIsByteIdentical) {
  const Checkpoint a = explored_checkpoint(test::two_proc_bus());
  const std::string path = temp_path("roundtrip.txt");
  ASSERT_EQ(save_checkpoint(a, path), "");
  Checkpoint b;
  ASSERT_EQ(load_checkpoint(path, b), "");
  const std::string path2 = temp_path("roundtrip2.txt");
  ASSERT_EQ(save_checkpoint(b, path2), "");
  EXPECT_EQ(slurp(path), slurp(path2));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(Checkpoint, MissingWitnessSentinelSurvivesRoundTrip) {
  Checkpoint a = explored_checkpoint(test::chain3_bus());
  ASSERT_GE(a.points.size(), 2U);
  a.witnesses[1] = synth::Implementation{};  // witness lost to a fault
  const std::string text = to_text(a);
  Checkpoint b;
  ASSERT_EQ(parse_checkpoint(text, b), "");
  EXPECT_TRUE(b.witnesses[1].option_of_task.empty());
  EXPECT_FALSE(b.witnesses[0].option_of_task.empty());
  EXPECT_EQ(to_text(b), text);
}

TEST(Checkpoint, EveryByteFlipIsDetected) {
  const Checkpoint a = explored_checkpoint(test::two_proc_bus());
  const std::string text = to_text(a);
  // Flip one byte at a sample of offsets: either the checksum or the
  // structural validation must reject every damaged variant that parses
  // differently from the original.
  for (std::size_t pos = 0; pos < text.size(); pos += 7) {
    std::string damaged = text;
    damaged[pos] ^= 0x20;
    if (damaged == text) continue;
    Checkpoint out;
    EXPECT_NE(parse_checkpoint(damaged, out), "") << "byte " << pos;
  }
}

TEST(Checkpoint, InjectedCorruptionIsRejectedOnLoad) {
  const Checkpoint a = explored_checkpoint(test::two_proc_bus());
  const std::string path = temp_path("corrupt.txt");
  ASSERT_EQ(save_checkpoint(a, path, /*inject_corruption=*/true), "");
  Checkpoint b;
  EXPECT_NE(load_checkpoint(path, b), "");
  std::remove(path.c_str());
}

TEST(Checkpoint, DominatedPointsAreRejected) {
  Checkpoint c;
  c.points = {pareto::Vec{1, 1, 1}, pareto::Vec{2, 2, 2}};  // 2nd is dominated
  const std::string err = parse_checkpoint(to_text(c), c);
  EXPECT_NE(err.find("non-dominated"), std::string::npos) << err;
}

TEST(Checkpoint, UnsortedPointsAreRejected) {
  Checkpoint c;
  c.points = {pareto::Vec{5, 1, 9}, pareto::Vec{1, 9, 5}};
  const std::string err = parse_checkpoint(to_text(c), c);
  EXPECT_NE(err.find("sorted"), std::string::npos) << err;
}

// Resuming from another spec's checkpoint starts cold: the delta is Unsafe,
// so none of its points is offered to the warm gate, and the front is the
// cold one.
TEST(Checkpoint, ResumeFromForeignSpecStartsCold) {
  const synth::Specification spec = test::chain3_bus();
  const Checkpoint foreign = explored_checkpoint(test::two_proc_bus());
  ReexploreOptions ro;
  ro.base.common.certify = true;
  const ReexploreResult r = reexplore(foreign, spec, ro);
  EXPECT_EQ(r.reuse.delta.cls, DeltaClass::Unsafe);
  EXPECT_TRUE(r.reuse.cold_start);
  EXPECT_EQ(r.reuse.archive_reused, 0U);
  ASSERT_TRUE(r.base.stats.complete);
  EXPECT_EQ(r.base.stats.warm_seeds, 0U);
  EXPECT_EQ(r.base.front, explore(spec).front);  // unpoisoned
  EXPECT_TRUE(r.base.certified) << r.base.certificate_error;
}

// A checkpoint cannot change the front it is restarted into: a foreign one
// classifies Unsafe and starts cold, and a fully forged one — the target
// spec's fingerprint and section digests over another spec's points — is
// taken at its word as Identical, yet every witness is re-validated against
// the target spec, so only feasible target points can reach the archive.
TEST(Checkpoint, ForeignOrForgedCheckpointCannotChangeTheFront) {
  const synth::Specification spec = test::chain3_bus();
  ExploreOptions cold_opts;
  cold_opts.common.certify = true;
  const ExploreResult cold = explore(spec, cold_opts);
  ASSERT_TRUE(cold.certified) << cold.certificate_error;

  const Checkpoint foreign = explored_checkpoint(test::two_proc_bus());
  Checkpoint forged = foreign;
  forged.spec_fingerprint = spec_fingerprint(spec);
  forged.has_sections = true;
  forged.sections = spec_sections(spec);
  EXPECT_EQ(classify_checkpoint(foreign, spec).cls, DeltaClass::Unsafe);
  EXPECT_TRUE(checkpoint_seeds(foreign, spec).empty());
  EXPECT_EQ(classify_checkpoint(forged, spec).cls, DeltaClass::Identical);

  const Checkpoint* const untrusted[] = {&foreign, &forged};
  for (const Checkpoint* ckpt : untrusted) {
    for (const std::size_t threads : {1U, 2U}) {
      const ExploreResult r = restart(*ckpt, spec, threads);
      ASSERT_TRUE(r.stats.complete);
      EXPECT_EQ(r.front, cold.front) << "threads " << threads;
      EXPECT_TRUE(r.certified) << r.certificate_error;
    }
  }
}

TEST(Checkpoint, KilledAndResumedRunMatchesUninterrupted) {
  const synth::Specification spec = test::diamond_two_proc();
  const ExploreResult uninterrupted = explore(spec);
  ASSERT_TRUE(uninterrupted.stats.complete);

  // Kill the first run via its budget (deadline-equivalent trip through the
  // monitor) after forcing a checkpoint on every discovery.
  const std::string path = temp_path("resume.txt");
  ExploreOptions first;
  first.common.conflict_budget = 1;
  first.common.solver_options.monitor_interval = 1;
  first.common.checkpoint_path = path;
  first.common.checkpoint_interval_seconds = 0.0;
  const ExploreResult killed = explore(spec, first);
  EXPECT_FALSE(killed.stats.complete);

  Checkpoint ckpt;
  ASSERT_EQ(load_checkpoint(path, ckpt), "");
  EXPECT_EQ(ckpt.points, killed.front);  // the final write is unconditional
  ASSERT_FALSE(ckpt.points.empty()) << "the kill must leave points to reuse";

  for (const std::size_t threads : {1U, 2U, 4U}) {
    const ExploreResult resumed = restart(ckpt, spec, threads);
    ASSERT_TRUE(resumed.stats.complete) << "threads " << threads;
    EXPECT_EQ(resumed.front, uninterrupted.front) << "threads " << threads;
    EXPECT_EQ(resumed.stats.reason, StopReason::Completed);
    EXPECT_GT(resumed.stats.warm_seeds, 0U) << "threads " << threads;
    EXPECT_TRUE(resumed.certified)
        << "threads " << threads << ": " << resumed.certificate_error;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ParallelResumeMatchesUninterrupted) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult uninterrupted = explore(spec);
  ASSERT_TRUE(uninterrupted.stats.complete);

  const std::string path = temp_path("par_resume.txt");
  ParallelExploreOptions first;
  first.threads = 2;
  first.common.conflict_budget = 1;
  first.common.solver_options.monitor_interval = 1;
  first.common.checkpoint_path = path;
  first.common.checkpoint_interval_seconds = 0.0;
  (void)explore_parallel(spec, first);

  Checkpoint ckpt;
  ASSERT_EQ(load_checkpoint(path, ckpt), "");

  for (const std::size_t threads : {1U, 2U, 4U}) {
    const ExploreResult resumed = restart(ckpt, spec, threads);
    ASSERT_TRUE(resumed.stats.complete) << "threads " << threads;
    EXPECT_EQ(resumed.front, uninterrupted.front) << "threads " << threads;
    EXPECT_TRUE(resumed.certified)
        << "threads " << threads << ": " << resumed.certificate_error;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumedRunsAreCertifiable) {
  const synth::Specification spec = test::two_proc_bus();
  const Checkpoint ckpt = explored_checkpoint(spec);
  const ExploreResult r = restart(ckpt, spec, 1);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_EQ(r.stats.warm_seeds, ckpt.points.size())
      << "every checkpointed point re-enters through the warm gate";
  EXPECT_TRUE(r.certified) << r.certificate_error;
}

// A checkpoint point without a witness (only a fault between archive insert
// and witness capture leaves one) cannot pass the warm gate, so it is not
// re-seeded — and the restart is still exact.
TEST(Checkpoint, WitnessLessPointsAreNotReseeded) {
  const synth::Specification spec = test::chain3_bus();
  Checkpoint ckpt = explored_checkpoint(spec);
  ASSERT_GE(ckpt.points.size(), 2U);
  ckpt.witnesses[1] = synth::Implementation{};
  EXPECT_EQ(checkpoint_seeds(ckpt, spec).size(), ckpt.points.size() - 1);
  const ExploreResult r = restart(ckpt, spec, 2);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_EQ(r.front, explore(spec).front);
  EXPECT_TRUE(r.certified) << r.certificate_error;
}

// The service's retry path: a certified Session whose first attempt is cut
// short after checkpointing restarts from that checkpoint on the next run()
// and still returns the cold front, certified.
TEST(Session, RetryAfterACheckpointedInterruptCertifies) {
  const synth::Specification spec = test::diamond_two_proc();
  ExploreOptions cold_opts;
  cold_opts.common.certify = true;
  const ExploreResult cold = explore(spec, cold_opts);
  ASSERT_TRUE(cold.certified) << cold.certificate_error;

  // The deadline trips on the third budget poll: after the first model (and
  // its checkpoint write), during its drill-down.  The plan is disarmed
  // before the retry.
  FaultPlan plan;
  plan.deadline_after_polls = 3;
  const std::string path = temp_path("session.txt");
  std::remove(path.c_str());
  SessionOptions sopts;
  sopts.base.threads = 1;
  sopts.base.common.certify = true;
  sopts.base.common.fault = &plan;
  sopts.checkpoint_path = path;
  sopts.checkpoint_interval_seconds = 0.0;
  Session session(spec, sopts);

  const ParallelExploreResult first = session.run();
  ASSERT_FALSE(first.base.stats.complete);
  EXPECT_FALSE(first.base.certified);
  Checkpoint ckpt;
  ASSERT_EQ(load_checkpoint(path, ckpt), "");
  ASSERT_FALSE(ckpt.points.empty()) << "the first attempt must checkpoint";

  plan = FaultPlan{};
  const ParallelExploreResult second = session.run();
  ASSERT_TRUE(second.base.stats.complete);
  EXPECT_EQ(second.base.stats.warm_seeds, ckpt.points.size())
      << "the retry must restart from the checkpoint";
  EXPECT_EQ(second.base.front, cold.front);
  EXPECT_TRUE(second.base.certified) << second.base.certificate_error;
  std::remove(path.c_str());
}

// --- format v2: the retired warm-start flag --------------------------------

TEST(Checkpoint, VersionTwoFilesStillLoad) {
  const std::string text = with_checksum(
      "aspmt-ckpt 2\nspec 7\nseed 1\nelapsed-ms 5\nwarm 1\npoints 1\n"
      "p 3 1 2 3\n");
  Checkpoint c;
  ASSERT_EQ(parse_checkpoint(text, c), "");
  EXPECT_EQ(c.spec_fingerprint, 7U);
  EXPECT_FALSE(c.has_sections);
  EXPECT_TRUE(c.clauses.empty());
  ASSERT_EQ(c.points.size(), 1U);
  EXPECT_EQ(c.points.front(), (pareto::Vec{1, 2, 3}));
}

TEST(Checkpoint, SectionsLineInsideVersionTwoIsRejected) {
  const std::string text = with_checksum(
      "aspmt-ckpt 2\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "sections 1 2 3 4\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  const std::string err = parse_checkpoint(text, c);
  EXPECT_NE(err.find("unknown line kind"), std::string::npos) << err;
}

// --- format v3: per-section digests + the learnt-clause dump --------------

TEST(Checkpoint, SectionsAndClausesSurviveRoundTrip) {
  Checkpoint a = explored_checkpoint(test::chain3_bus());
  a.has_sections = true;
  a.sections = spec_sections(test::chain3_bus());
  a.clause_base_vars = 40;
  a.clauses = {{1, -2, 3}, {-40, 17}};
  const std::string text = to_text(a);
  Checkpoint b;
  ASSERT_EQ(parse_checkpoint(text, b), "");
  EXPECT_TRUE(b.has_sections);
  EXPECT_EQ(b.sections, a.sections);
  EXPECT_EQ(b.clause_base_vars, a.clause_base_vars);
  EXPECT_EQ(b.clauses, a.clauses);
  EXPECT_EQ(to_text(b), text);
}

TEST(Checkpoint, ClauseLiteralOutsideBaseIsRejected) {
  const std::string text = with_checksum(
      "aspmt-ckpt 3\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "clauses 1 10\nc 2 3 -11\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  const std::string err = parse_checkpoint(text, c);
  EXPECT_NE(err.find("literal out of range"), std::string::npos) << err;
}

TEST(Checkpoint, ClauseCountMismatchIsRejected) {
  const std::string text = with_checksum(
      "aspmt-ckpt 3\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "clauses 2 10\nc 1 3\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  const std::string err = parse_checkpoint(text, c);
  EXPECT_NE(err.find("clause count mismatch"), std::string::npos) << err;
}

// A v3+ checkpoint classifies by its per-section digests, not by the
// combined fingerprint: a combined-hash match with one differing section
// (a simulated collision victim) is not taken as Identical, and the
// restart from it is still exact and certified.
TEST(Checkpoint, PerSectionDigestMismatchDefeatsCombinedHashCollision) {
  const synth::Specification spec = test::two_proc_bus();
  Checkpoint forged = explored_checkpoint(spec);
  forged.has_sections = true;
  forged.sections = spec_sections(spec);
  ASSERT_EQ(classify_checkpoint(forged, spec).cls, DeltaClass::Identical);
  forged.sections.objectives ^= 0xdeadbeefULL;
  ASSERT_EQ(forged.spec_fingerprint, spec_fingerprint(spec));
  const DeltaReport delta = classify_checkpoint(forged, spec);
  EXPECT_NE(delta.cls, DeltaClass::Identical)
      << "combined hash matches but a section digest differs";
  EXPECT_TRUE(delta.objectives_changed);

  const ExploreResult r = restart(forged, spec, 1);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_EQ(r.front, explore(spec).front);
  EXPECT_TRUE(r.certified) << r.certificate_error;
}

TEST(Checkpoint, ExploredRunRecordsSectionsAndClausesInSnapshot) {
  const std::string path = temp_path("v3_snapshot.txt");
  ExploreOptions opts;
  opts.common.checkpoint_path = path;
  const ExploreResult r = explore(test::chain3_bus(), opts);
  ASSERT_TRUE(r.stats.complete);
  Checkpoint ckpt;
  ASSERT_EQ(load_checkpoint(path, ckpt), "");
  EXPECT_TRUE(ckpt.has_sections);
  EXPECT_EQ(ckpt.sections, spec_sections(test::chain3_bus()));
  for (const auto& clause : ckpt.clauses) {
    ASSERT_FALSE(clause.empty());
    for (const std::int32_t l : clause) {
      ASSERT_NE(l, 0);
      ASSERT_LE(static_cast<std::uint32_t>(l < 0 ? -l : l),
                ckpt.clause_base_vars);
    }
  }
  std::remove(path.c_str());
}

// --- format v4: the retired slice-scheduler bounds -------------------------

// The writer emits none of the retired lines; a v5 file holds only what a
// restart reads.
TEST(Checkpoint, EmptySliceBoundsOmitTheSlicesLine) {
  const Checkpoint a = explored_checkpoint(test::two_proc_bus());
  const std::string text = to_text(a);
  EXPECT_EQ(text.rfind("aspmt-ckpt 5", 0), 0U) << "v5 header expected";
  for (const char* retired :
       {"\nslices ", "\nseed ", "\nelapsed-ms ", "\nwarm "}) {
    EXPECT_EQ(text.find(retired), std::string::npos) << retired;
  }
  Checkpoint b;
  ASSERT_EQ(parse_checkpoint(text, b), "");
  EXPECT_EQ(to_text(b), text);
}

TEST(Checkpoint, VersionThreeFilesLoadWithEmptySliceBounds) {
  const std::string text = with_checksum(
      "aspmt-ckpt 3\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\npoints 1\n"
      "p 3 1 2 3\n");
  Checkpoint c;
  ASSERT_EQ(parse_checkpoint(text, c), "");
  ASSERT_EQ(c.points.size(), 1U);
}

TEST(Checkpoint, SlicesLineInsideVersionThreeIsRejected) {
  const std::string text = with_checksum(
      "aspmt-ckpt 3\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "slices 2 4 9\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  const std::string err = parse_checkpoint(text, c);
  EXPECT_NE(err.find("unknown line kind"), std::string::npos) << err;
}

// A retired line's contents are never read, so a malformed one inside the
// version that allows it is skipped (the checksum still guards the bytes).
TEST(Checkpoint, MalformedSlicesLineIsIgnored) {
  const std::string text = with_checksum(
      "aspmt-ckpt 4\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "slices 3 4 9\npoints 1\np 3 1 2 3\n");  // promises 3 bounds, gives 2
  Checkpoint c;
  ASSERT_EQ(parse_checkpoint(text, c), "");
  ASSERT_EQ(c.points.size(), 1U);
}

// --- format v5: the objective-tree section digest --------------------------

TEST(Checkpoint, VersionFourSectionsLoadWithTheDefaultTreeDigest) {
  const std::string text = with_checksum(
      "aspmt-ckpt 4\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "sections 1 2 3 4\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  ASSERT_EQ(parse_checkpoint(text, c), "");
  EXPECT_TRUE(c.has_sections);
  // Pre-v5 files predate declared objective trees: they load as "default
  // axes", so a resumed session against an unchanged classic spec still
  // section-matches.
  EXPECT_EQ(c.sections.tree, default_tree_digest());
}

TEST(Checkpoint, FourDigestSectionsLineInsideVersionFiveIsRejected) {
  const std::string text = with_checksum(
      "aspmt-ckpt 5\nspec 7\nseed 1\nelapsed-ms 5\nwarm 0\n"
      "sections 1 2 3 4\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  const std::string err = parse_checkpoint(text, c);
  EXPECT_NE(err.find("malformed section digests"), std::string::npos) << err;
}

TEST(Checkpoint, TreeDigestSurvivesRoundTripInTheSectionsLine) {
  Checkpoint a = explored_checkpoint(test::chain3_bus());
  a.has_sections = true;
  a.sections = spec_sections(test::chain3_bus());
  const std::string text = to_text(a);
  EXPECT_NE(text.find("sections "), std::string::npos);
  Checkpoint b;
  ASSERT_EQ(parse_checkpoint(text, b), "");
  EXPECT_EQ(b.sections.tree, a.sections.tree);
  EXPECT_EQ(to_text(b), text);
}

TEST(Checkpoint, VersionOneFilesStillLoadWithWarmStartedFalse) {
  const std::string text = with_checksum(
      "aspmt-ckpt 1\nspec 7\nseed 1\nelapsed-ms 5\npoints 1\np 3 1 2 3\n");
  Checkpoint c;
  ASSERT_EQ(parse_checkpoint(text, c), "");
  ASSERT_EQ(c.points.size(), 1U);
  EXPECT_EQ(c.points.front(), (pareto::Vec{1, 2, 3}));
}

TEST(Checkpoint, WarmLineInsideVersionOneIsRejected) {
  const std::string text = with_checksum(
      "aspmt-ckpt 1\nspec 7\nseed 1\nelapsed-ms 5\nwarm 1\npoints 1\n"
      "p 3 1 2 3\n");
  Checkpoint c;
  const std::string err = parse_checkpoint(text, c);
  EXPECT_NE(err.find("unknown line kind"), std::string::npos) << err;
}

TEST(Checkpoint, MalformedWarmFlagIsIgnored) {
  const std::string text = with_checksum(
      "aspmt-ckpt 2\nspec 7\nseed 1\nelapsed-ms 5\nwarm 7\npoints 1\n"
      "p 3 1 2 3\n");
  Checkpoint c;
  ASSERT_EQ(parse_checkpoint(text, c), "");
  ASSERT_EQ(c.points.size(), 1U);
}

// Resuming *after* a warm start: the continued run is exact and certifies,
// and the resumed points themselves enter through the warm gate.
TEST(Checkpoint, ResumeAfterWarmStartIsExactAndCertifiable) {
  const synth::Specification spec = test::diamond_two_proc();
  const ExploreResult cold = explore(spec);
  ASSERT_TRUE(cold.stats.complete);

  const std::string path = temp_path("warm_resume.txt");
  ExploreOptions first;
  first.common.warm_start.method = WarmStartMethod::Nsga2;
  first.common.warm_start.budget = 120;
  first.common.checkpoint_path = path;
  const ExploreResult warmed = explore(spec, first);
  ASSERT_TRUE(warmed.stats.complete);
  ASSERT_GT(warmed.stats.warm_seeds, 0U);

  Checkpoint ckpt;
  ASSERT_EQ(load_checkpoint(path, ckpt), "");

  ReexploreOptions second;
  second.base.threads = 1;
  second.base.common.certify = true;
  const ExploreResult resumed = reexplore(ckpt, spec, second).base;
  ASSERT_TRUE(resumed.stats.complete);
  EXPECT_EQ(resumed.front, cold.front);
  EXPECT_TRUE(resumed.certified) << resumed.certificate_error;
  EXPECT_GT(resumed.stats.warm_seeds, 0U)
      << "resumed points enter through the gate";
  std::remove(path.c_str());
}

TEST(Checkpoint, WriterHonoursItsInterval) {
  const std::string path = temp_path("interval.txt");
  CheckpointWriter writer(path, 3600.0);  // one hour: never due in-test
  EXPECT_FALSE(writer.due());
  Checkpoint c;
  EXPECT_EQ(writer.write_if_due(c), "");  // skipped, not an error
  Checkpoint probe;
  EXPECT_NE(load_checkpoint(path, probe), "");  // nothing was written
  EXPECT_EQ(writer.write(c), "");  // the final write is unconditional
  EXPECT_EQ(load_checkpoint(path, probe), "");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aspmt::dse
