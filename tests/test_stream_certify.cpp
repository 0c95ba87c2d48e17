// Streamed certification: a one-worker certified run checks its proof on a
// second thread while the search writes it.  The proof log seals
// line-aligned chunks for that checker, and the incremental checker admits
// dominance sources as the run publishes them.  The verdict must be the
// replay's, with no fallback on real runs, and every early exit — a fault,
// a budget, a worker that dies as it starts — must return without a
// certificate, with the checker thread joined.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "asp/proof.hpp"
#include "cert/certify.hpp"
#include "cert/checker.hpp"
#include "dse/budget.hpp"
#include "dse/explorer.hpp"
#include "dse/fault.hpp"
#include "gen/generator.hpp"

namespace aspmt {
namespace {

/// A Table-2 ladder rung as perfbench builds it.
synth::Specification rung(std::uint64_t seed, gen::Architecture arch,
                          std::uint32_t options, std::uint32_t bus_processors) {
  gen::GeneratorConfig c;
  c.seed = seed;
  c.tasks = 8;
  c.layers = 4;
  c.architecture = arch;
  c.options_per_task = options;
  c.bus_processors = bus_processors;
  return gen::generate(c);
}

synth::Specification s06() { return rung(106, gen::Architecture::SharedBus, 3, 4); }
synth::Specification s07() { return rung(107, gen::Architecture::Mesh2x2, 2, 3); }

TEST(StreamedCertify, ProofLogSealsLineAlignedChunksInOrder) {
  asp::ProofLog log;
  std::vector<std::string> sealed;
  log.set_chunk_sink([&](std::string_view chunk) { sealed.emplace_back(chunk); });
  const std::vector<asp::Lit> clause{asp::Lit::make(0, true),
                                     asp::Lit::make(123456, false),
                                     asp::Lit::make(7, true)};
  for (int i = 0; i < 150000; ++i) log.learnt_clause(clause);
  // One line longer than a chunk gets a chunk of its own.
  const std::vector<std::pair<asp::Lit, std::int64_t>> terms(
      200000, {asp::Lit::make(9, true), 1000});
  log.def_sum(0, terms);
  log.learnt_clause(clause);
  log.flush();
  log.flush();  // nothing left to seal

  ASSERT_GE(sealed.size(), 4U);
  std::string joined;
  std::size_t oversized = 0;
  for (const std::string& chunk : sealed) {
    ASSERT_FALSE(chunk.empty());
    EXPECT_EQ(chunk.back(), '\n');
    if (chunk.size() > asp::ProofLog::kChunkBytes) {
      ++oversized;
      EXPECT_EQ(chunk.rfind("S 0 200000 10 1000", 0), 0U);
    }
    joined += chunk;
  }
  EXPECT_EQ(oversized, 1U);
  EXPECT_EQ(joined.rfind("p aspmt 1\nL 1 -123457 8 0\n", 0), 0U);
  EXPECT_EQ(log.take_text(), joined);
}

TEST(StreamedCertify, OnlyMissingPointsFailForWantOfPoints) {
  const cert::CheckOptions opts = cert::band_check_options(0);
  const std::string decl = "p aspmt 1\nS 0 1 1 5\nO 0 L 0\n";

  // An F step before its point is admitted, and after.
  const std::string with_f = decl + "F 1 3 0\nT DOM 1 4 ; -1 0\n";
  cert::ProofChecker early(opts);
  early.feed(with_f);
  const cert::CheckResult unadmitted = early.finish();
  EXPECT_FALSE(unadmitted.ok);
  EXPECT_EQ(unadmitted.error, "line 4: feasible point lacks a validated witness");
  EXPECT_TRUE(early.failed_for_want_of_points());

  cert::ProofChecker admitted(opts);
  admitted.admit({3});
  EXPECT_TRUE(admitted.feed(with_f));
  EXPECT_TRUE(admitted.finish().ok);
  EXPECT_FALSE(admitted.failed_for_want_of_points());

  // A DOM lemma no admitted point is at or below.
  cert::ProofChecker dom(opts);
  dom.admit({6});
  dom.feed(decl + "T DOM 1 4 ; -1 0\n");
  EXPECT_EQ(dom.finish().error,
            "line 4: theory lemma rejected: no certified feasible point at or "
            "below the thresholds");
  EXPECT_TRUE(dom.failed_for_want_of_points());

  // With F steps trusted, admission plays no part; nor in other failures.
  cert::ProofChecker trusted(cert::CheckOptions{});
  trusted.feed(decl + "T DOM 1 4 ; -1 0\n");
  EXPECT_FALSE(trusted.finish().ok);
  EXPECT_FALSE(trusted.failed_for_want_of_points());
  cert::ProofChecker not_rup(opts);
  not_rup.feed("p aspmt 1\nI 1 2 0\nL 1 0\n");
  EXPECT_EQ(not_rup.finish().error, "line 3: learnt clause is not RUP");
  EXPECT_FALSE(not_rup.failed_for_want_of_points());
}

TEST(StreamedCertify, LadderRungsCertifyFromTheStream) {
  for (const auto& [name, spec] :
       {std::pair{"S06", s06()}, std::pair{"S07", s07()}}) {
    dse::ExploreOptions opts;
    opts.common.certify = true;
    const dse::ExploreResult r = dse::explore(spec, opts);
    ASSERT_TRUE(r.stats.complete) << name;
    EXPECT_TRUE(r.certified) << name << ": " << r.certificate_error;
    EXPECT_TRUE(r.stream_checked) << name << " fell back to the replay";
    EXPECT_GT(r.stats.certify_tail_seconds, 0.0) << name;
    EXPECT_LE(r.stats.certify_tail_seconds, r.stats.seconds) << name;
    // The text handed over is the stream the checker read: it replays.
    cert::CheckOptions replay;
    replay.require_global_unsat = true;
    EXPECT_TRUE(cert::check_proof(r.proof, replay).ok) << name;
  }
}

TEST(StreamedCertify, FaultedOneWorkerRunsReturnUncertified) {
  const synth::Specification spec = s06();
  struct Case {
    const char* plan;
    std::uint64_t conflict_budget;
  };
  for (const Case& c : {Case{"alloc-fail=2", 0}, Case{"worker-throw=0:1", 0},
                        Case{"deadline-polls=1", 0}, Case{"", 40},
                        Case{"worker-throw=0:0", 0}}) {
    const dse::FaultPlan fault = dse::FaultPlan::parse(c.plan);
    dse::ExploreOptions opts;
    opts.common.certify = true;
    opts.common.fault = &fault;
    opts.common.conflict_budget = c.conflict_budget;
    const dse::ExploreResult r = dse::explore(spec, opts);  // must return
    EXPECT_FALSE(r.stats.complete) << c.plan;
    EXPECT_FALSE(r.certified) << c.plan;
    EXPECT_FALSE(r.stream_checked) << c.plan;
    EXPECT_FALSE(r.certificate_error.empty()) << c.plan;
    EXPECT_EQ(r.proof.substr(r.proof.size() - 4), "X 0\n") << c.plan;
  }
}

TEST(StreamedCertify, MemoryLimitedRunsCheckAfterTheSearch) {
  // The search polls a memory limit against the process's peak RSS, which
  // would count a streamed checker too.  So a memory-limited run checks
  // after its search, and a limit the search stays under still certifies.
  // The limit comes on the options (the CLI) or on the caller's budget
  // (service jobs).
  const synth::Specification spec = s06();
  const std::size_t roomy_mb = std::size_t{1} << 30;  // never reached
  dse::Budget budget(dse::BudgetLimits{0.0, 0, roomy_mb});
  for (const bool on_budget : {false, true}) {
    dse::ExploreOptions opts;
    opts.common.certify = true;
    if (on_budget) {
      opts.common.budget = &budget;
    } else {
      opts.common.mem_limit_mb = roomy_mb;
    }
    const dse::ExploreResult r = dse::explore(spec, opts);
    ASSERT_TRUE(r.stats.complete) << on_budget;
    EXPECT_TRUE(r.certified) << on_budget << ": " << r.certificate_error;
    EXPECT_FALSE(r.stream_checked) << on_budget;
    EXPECT_GT(r.stats.certify_tail_seconds, 0.0) << on_budget;
  }

  // A limit the search crosses stops it, uncertified, as before.
  dse::ExploreOptions tight;
  tight.common.certify = true;
  tight.common.mem_limit_mb = 1;
  const dse::ExploreResult r = dse::explore(spec, tight);
  EXPECT_EQ(r.stats.reason, dse::StopReason::Memory);
  EXPECT_FALSE(r.certified);
  EXPECT_FALSE(r.stream_checked);
  EXPECT_EQ(r.proof.substr(r.proof.size() - 4), "X 0\n");
}

}  // namespace
}  // namespace aspmt
