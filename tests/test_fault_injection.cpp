// Fault-injection suite: every injected fault must yield a clean exit (no
// exception escapes the explorer), a front that is a valid subset of the
// fault-free front, the correct structured StopReason, and never a
// certified=true result.  The uninjected control runs must still reach
// StopReason::Completed with identical fronts at 1, 2 and 4 threads.
#include "dse/fault.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "synth_fixtures.hpp"

namespace aspmt::dse {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "aspmt_fault_" + name;
}

/// A partial front is valid iff it is mutually non-dominated and every
/// point is covered by (weakly dominated by) some exact-front point — the
/// archive never invents points the fault-free run could not reach.
void expect_valid_partial_front(const std::vector<pareto::Vec>& partial,
                                const std::vector<pareto::Vec>& exact,
                                const char* label) {
  for (std::size_t i = 0; i < partial.size(); ++i) {
    for (std::size_t j = 0; j < partial.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(pareto::weakly_dominates(partial[j], partial[i]))
            << label << ": partial front not mutually non-dominated";
      }
    }
    bool covered = false;
    for (const pareto::Vec& q : exact) {
      covered = covered || pareto::weakly_dominates(q, partial[i]);
    }
    EXPECT_TRUE(covered) << label << ": point " << pareto::to_string(partial[i])
                         << " unreachable by the fault-free run";
  }
}

TEST(FaultInjection, PlanParsesTheFullSyntax) {
  const FaultPlan p = FaultPlan::parse(
      "worker-throw=1:2,alloc-fail=3,deadline-polls=5,corrupt-checkpoint");
  EXPECT_EQ(p.throw_worker, 1);
  EXPECT_EQ(p.throw_after_models, 2U);
  EXPECT_EQ(p.alloc_fail_after, 3U);
  EXPECT_EQ(p.deadline_after_polls, 5U);
  EXPECT_TRUE(p.corrupt_checkpoint);
  EXPECT_TRUE(p.any());

  const FaultPlan defaults = FaultPlan::parse("worker-throw=0,alloc-fail");
  EXPECT_EQ(defaults.throw_worker, 0);
  EXPECT_EQ(defaults.throw_after_models, 1U);
  EXPECT_EQ(defaults.alloc_fail_after, 1U);

  EXPECT_THROW((void)FaultPlan::parse("explode=now"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("worker-throw=x"),
               std::invalid_argument);
  EXPECT_FALSE(FaultPlan{}.any());
}

TEST(FaultInjection, EnvironmentArmsThePlan) {
  ::setenv("ASPMT_FAULT_INJECT", "deadline-polls=7", 1);
  const FaultPlan p = FaultPlan::from_env();
  ::unsetenv("ASPMT_FAULT_INJECT");
  EXPECT_EQ(p.deadline_after_polls, 7U);
  EXPECT_TRUE(p.any());
  EXPECT_FALSE(FaultPlan::from_env().any());
}

TEST(FaultInjection, SequentialWorkerThrowIsContained) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult exact = explore(spec);
  ASSERT_TRUE(exact.stats.complete);

  FaultPlan fault;
  fault.throw_worker = 0;
  fault.throw_after_models = 3;
  ExploreOptions opts;
  opts.common.fault = &fault;
  const ExploreResult r = explore(spec, opts);  // must not throw
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.reason, StopReason::WorkerFailure);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors.front().find("injected fault"), std::string::npos)
      << r.errors.front();
  expect_valid_partial_front(r.front, exact.front, "seq-throw");
}

TEST(FaultInjection, SequentialAllocFailureIsContained) {
  const synth::Specification spec = test::chain3_bus();
  const ExploreResult exact = explore(spec);
  FaultPlan fault;
  fault.alloc_fail_after = 2;  // the second witness capture throws bad_alloc
  ExploreOptions opts;
  opts.common.fault = &fault;
  const ExploreResult r = explore(spec, opts);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.reason, StopReason::WorkerFailure);
  EXPECT_FALSE(r.errors.empty());
  expect_valid_partial_front(r.front, exact.front, "seq-alloc");
  // The point whose capture failed stays on the front with an empty
  // placeholder witness — never an end() dereference.
  EXPECT_EQ(r.witnesses.size(), r.front.size());
}

TEST(FaultInjection, InjectedDeadlineMidPropagation) {
  FaultPlan fault;
  fault.deadline_after_polls = 1;  // expire on the very first monitor poll
  ExploreOptions opts;
  opts.common.fault = &fault;
  const ExploreResult r = explore(test::diamond_two_proc(), opts);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.reason, StopReason::Deadline);
  EXPECT_TRUE(r.front.empty());  // tripped before the first model
}

TEST(FaultInjection, MemoryCeilingYieldsCleanPartialExit) {
  // A 1 MiB ceiling is below any real process's peak RSS, so the first
  // monitor poll must trip it — equivalent to an allocation storm without
  // actually exhausting the host.
  ExploreOptions opts;
  opts.common.mem_limit_mb = 1;
  const ExploreResult r = explore(test::diamond_two_proc(), opts);
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.reason, StopReason::Memory);
  EXPECT_TRUE(r.front.empty());  // tripped before the first model

  ParallelExploreOptions par;
  par.threads = 2;
  par.common.mem_limit_mb = 1;
  const ParallelExploreResult p = explore_parallel(test::diamond_two_proc(), par);
  EXPECT_FALSE(p.base.stats.complete);
  EXPECT_EQ(p.base.stats.reason, StopReason::Memory);
  EXPECT_TRUE(p.worker_errors.empty());
}

TEST(FaultInjection, ParallelWorkerCrashIsContained) {
  const synth::Specification spec = test::diamond_two_proc();
  const ExploreResult exact = explore(spec);
  ASSERT_TRUE(exact.stats.complete);

  // {threads, worker to crash}.  Worker 0 is the anchor that keeps the
  // caller's configuration; its death at 2 and 4 threads leaves only the
  // survivors' own whole-problem searches to cover its share.
  const std::pair<std::size_t, int> inputs[] = {
      {1, 0}, {2, 1}, {4, 1}, {2, 0}, {4, 0}};
  for (const auto& [threads, victim] : inputs) {
    SCOPED_TRACE("threads " + std::to_string(threads) + ", worker " +
                 std::to_string(victim));
    FaultPlan fault;
    fault.throw_worker = victim;
    ParallelExploreOptions opts;
    opts.threads = threads;
    opts.common.fault = &fault;
    opts.common.certify = true;
    const ParallelExploreResult r = explore_parallel(spec, opts);
    expect_valid_partial_front(r.base.front, exact.front, "par-crash");
    // The targeted worker only dies if it accepted a model before a peer
    // finished the search; when it did, the containment contract applies.
    if (!r.worker_errors.empty()) {
      EXPECT_FALSE(r.base.certified);  // a degraded run is never certified
      EXPECT_EQ(r.base.stats.reason, StopReason::WorkerFailure);
      EXPECT_EQ(r.worker_errors.front().worker,
                static_cast<std::size_t>(fault.throw_worker));
      EXPECT_TRUE(r.workers[r.worker_errors.front().worker].failed);
      EXPECT_NE(r.base.certificate_error.find("never certified"),
                std::string::npos)
          << r.base.certificate_error;
      if (threads > 1) {
        // The survivors finish the fault-free front.
        EXPECT_TRUE(r.base.stats.complete);
        EXPECT_EQ(r.base.front, exact.front);
      }
    } else {
      EXPECT_TRUE(r.base.stats.complete);
      EXPECT_EQ(r.base.front, exact.front);
    }
  }
}

TEST(FaultInjection, SingleThreadCrashBeforeFirstPublishIsClean) {
  // threads=1 + crash on the first accepted model, or (M = 0) as soon as
  // the worker has built its context: deterministic worker death with an
  // empty (valid) front and a clean, structured exit, never a throw.
  for (const std::uint64_t models : {1U, 0U}) {
    FaultPlan fault;
    fault.throw_worker = 0;
    fault.throw_after_models = models;
    ParallelExploreOptions opts;
    opts.threads = 1;
    opts.common.fault = &fault;
    const ParallelExploreResult r =
        explore_parallel(test::two_proc_bus(), opts);
    EXPECT_FALSE(r.base.stats.complete) << models;
    EXPECT_EQ(r.base.stats.reason, StopReason::WorkerFailure) << models;
    ASSERT_EQ(r.worker_errors.size(), 1U) << models;
    EXPECT_EQ(r.worker_errors.front().worker, 0U) << models;
    EXPECT_NE(r.worker_errors.front().message.find("injected fault"),
              std::string::npos) << models;
    EXPECT_TRUE(r.workers[0].failed) << models;
    EXPECT_TRUE(r.base.front.empty()) << models;
  }
}

TEST(FaultInjection, CorruptedCheckpointDegradesToColdStart) {
  const synth::Specification spec = test::two_proc_bus();
  const std::string path = temp_path("corrupt_ckpt.txt");
  FaultPlan fault;
  fault.corrupt_checkpoint = true;
  ExploreOptions opts;
  opts.common.fault = &fault;
  opts.common.checkpoint_path = path;
  const ExploreResult r = explore(spec, opts);
  ASSERT_TRUE(r.stats.complete);  // corruption hits the file, not the run
  Checkpoint ckpt;
  EXPECT_NE(load_checkpoint(path, ckpt), "");  // loader must reject it
  std::remove(path.c_str());
}

TEST(FaultInjection, EnvironmentPlanReachesTheExplorer) {
  ::setenv("ASPMT_FAULT_INJECT", "worker-throw=0:1", 1);
  const ExploreResult r = explore(test::two_proc_bus());
  ::unsetenv("ASPMT_FAULT_INJECT");
  EXPECT_FALSE(r.stats.complete);
  EXPECT_EQ(r.stats.reason, StopReason::WorkerFailure);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors.front().find("injected fault"), std::string::npos);
}

TEST(FaultInjection, UninjectedRunsReachCompletedIdentically) {
  using SpecFn = synth::Specification (*)();
  for (const SpecFn make : {SpecFn{&test::two_proc_bus},
                            SpecFn{&test::chain3_bus},
                            SpecFn{&test::diamond_two_proc}}) {
    const synth::Specification spec = make();
    const ExploreResult seq = explore(spec);
    ASSERT_TRUE(seq.stats.complete);
    EXPECT_EQ(seq.stats.reason, StopReason::Completed);
    EXPECT_TRUE(seq.errors.empty());
    for (const std::size_t threads : {1U, 2U, 4U}) {
      ParallelExploreOptions opts;
      opts.threads = threads;
      const ParallelExploreResult par = explore_parallel(spec, opts);
      ASSERT_TRUE(par.base.stats.complete);
      EXPECT_EQ(par.base.stats.reason, StopReason::Completed);
      EXPECT_TRUE(par.worker_errors.empty());
      EXPECT_EQ(par.base.front, seq.front);
    }
  }
}

TEST(FaultInjection, CertifiedRunStillCertifiesWithoutFaults) {
  // Guard against the fault hooks perturbing the healthy certified path.
  ExploreOptions opts;
  opts.common.certify = true;
  const ExploreResult r = explore(test::chain3_bus(), opts);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_TRUE(r.certified) << r.certificate_error;
}

}  // namespace
}  // namespace aspmt::dse
