// The exploration service is exact software wrapped in robustness: whatever
// the daemon survives — overload, flaky attempts, SIGKILL — every job that
// reports `completed` must carry the same front the batch explorer computes
// for its spec.  These tests pin the four pillars (admission/shedding,
// crash-safe journal, retry/backoff supervision, graceful drain) plus the
// wire protocol and the durability primitives underneath them.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/fault.hpp"
#include "dse/supervise.hpp"
#include "gen/generator.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "synth/specio.hpp"
#include "synth_fixtures.hpp"

namespace aspmt::serve {
namespace {

std::string temp_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "aspmt_serve_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string spec_text(const synth::Specification& spec) {
  return synth::to_text(spec);
}

/// A gate a before_attempt hook can block on until the test releases it —
/// the deterministic way to hold a job in Running.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return open; });
  }
};

ServerOptions small_server(const std::string& journal_dir) {
  ServerOptions opts;
  opts.journal_dir = journal_dir;
  opts.workers = 1;
  opts.drain_grace_seconds = 10.0;
  opts.retry.initial_backoff_seconds = 0.01;
  opts.retry.max_backoff_seconds = 0.02;
  return opts;
}

// ---- protocol --------------------------------------------------------------

TEST(ServeProtocol, RoundTripPreservesStructureAndEscapes) {
  Json obj = Json::object();
  obj.set("op", "submit");
  obj.set("count", std::int64_t{42});
  obj.set("ratio", 1.5);
  obj.set("flag", true);
  obj.set("nothing", nullptr);
  obj.set("text", std::string("line1\nline2\t\"quoted\" \\slash\x01"));
  Json arr = Json::array();
  arr.push_back(std::int64_t{-7});
  Json inner = Json::object();
  inner.set("k", "v");
  arr.push_back(std::move(inner));
  obj.set("list", std::move(arr));

  const std::string line = obj.dump();
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "dump must stay single-line for the wire protocol";

  Json parsed;
  ASSERT_EQ(Json::parse(line, parsed), "");
  EXPECT_EQ(parsed.get("op").as_string(), "submit");
  EXPECT_EQ(parsed.get("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(parsed.get("ratio").as_double(), 1.5);
  EXPECT_TRUE(parsed.get("flag").as_bool());
  EXPECT_TRUE(parsed.get("nothing").is_null());
  EXPECT_EQ(parsed.get("text").as_string(),
            "line1\nline2\t\"quoted\" \\slash\x01");
  ASSERT_EQ(parsed.get("list").items().size(), 2U);
  EXPECT_EQ(parsed.get("list").items()[0].as_int(), -7);
  EXPECT_EQ(parsed.get("list").items()[1].get("k").as_string(), "v");
  // Second round trip is a fixed point.
  EXPECT_EQ(parsed.dump(), line);
}

TEST(ServeProtocol, NumbersWithoutFractionParseAsInt) {
  Json v;
  ASSERT_EQ(Json::parse("42", v), "");
  EXPECT_EQ(v.kind(), Json::Kind::Int);
  ASSERT_EQ(Json::parse("-4.5", v), "");
  EXPECT_EQ(v.kind(), Json::Kind::Double);
  ASSERT_EQ(Json::parse("1e3", v), "");
  EXPECT_EQ(v.kind(), Json::Kind::Double);
}

TEST(ServeProtocol, MalformedInputIsADiagnosticNeverACrash) {
  Json v;
  EXPECT_NE(Json::parse("", v), "");
  EXPECT_NE(Json::parse("{", v), "");
  EXPECT_NE(Json::parse("[1,]", v), "");
  EXPECT_NE(Json::parse("{\"a\":1} trailing", v), "");
  EXPECT_NE(Json::parse("\"unterminated", v), "");
  // Depth bomb: the recursion guard must reject, not overflow the stack.
  const std::string bomb(500, '[');
  EXPECT_NE(Json::parse(bomb, v), "");
}

// ---- journal ---------------------------------------------------------------

JobRecord sample_record() {
  JobRecord r;
  r.id = "j-7";
  r.tenant = "acme";
  r.state = JobState::Completed;
  r.priority = -3;
  r.threads = 2;
  r.attempts = 2;
  r.limits.wall_seconds = 1.5;
  r.limits.conflicts = 1000;
  r.limits.memory_mb = 256;
  r.certify = true;
  r.spec_text = spec_text(test::two_proc_bus());
  r.error = "survived a\nmultiline error";
  r.complete = true;
  r.certified = true;
  r.seconds = 0.25;
  r.front = {{5, 7, 9}, {6, 6, 10}};
  return r;
}

TEST(ServeJournal, RecordRoundTrips) {
  const JobRecord r = sample_record();
  JobRecord back;
  ASSERT_EQ(job_from_text(job_to_text(r), back), "");
  EXPECT_EQ(back.id, r.id);
  EXPECT_EQ(back.tenant, r.tenant);
  EXPECT_EQ(back.state, r.state);
  EXPECT_EQ(back.priority, r.priority);
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_EQ(back.attempts, r.attempts);
  EXPECT_DOUBLE_EQ(back.limits.wall_seconds, r.limits.wall_seconds);
  EXPECT_EQ(back.limits.conflicts, r.limits.conflicts);
  EXPECT_EQ(back.limits.memory_mb, r.limits.memory_mb);
  EXPECT_TRUE(back.certify);
  EXPECT_EQ(back.spec_text, r.spec_text);
  EXPECT_EQ(back.error, "survived a multiline error");  // LF flattened
  EXPECT_TRUE(back.complete);
  EXPECT_TRUE(back.certified);
  EXPECT_DOUBLE_EQ(back.seconds, r.seconds);
  EXPECT_EQ(back.front, r.front);
}

TEST(ServeJournal, NonTerminalRecordCarriesNoResult) {
  JobRecord r = sample_record();
  r.state = JobState::Queued;
  r.front.clear();
  r.complete = false;
  JobRecord back;
  ASSERT_EQ(job_from_text(job_to_text(r), back), "");
  EXPECT_EQ(back.state, JobState::Queued);
  EXPECT_TRUE(back.front.empty());
}

TEST(ServeJournal, EveryCorruptionIsRejectedByTheChecksum) {
  const std::string good = job_to_text(sample_record());
  JobRecord out;
  ASSERT_EQ(job_from_text(good, out), "");
  // Flip one byte anywhere before the trailer: must be rejected.
  for (std::size_t i = 0; i + 26 < good.size(); i += 97) {
    std::string bad = good;
    bad[i] ^= 0x20;
    EXPECT_NE(job_from_text(bad, out), "") << "flip at offset " << i;
  }
  // Truncation (torn write) at any prefix: must be rejected.
  EXPECT_NE(job_from_text(good.substr(0, good.size() / 2), out), "");
  EXPECT_NE(job_from_text("", out), "");
}

TEST(ServeJournal, LoadAllSkipsCorruptEntriesWithDiagnostics) {
  const std::string dir = temp_dir("journal_loadall");
  const JobJournal journal(dir);
  JobRecord a = sample_record();
  a.id = "j-1";
  JobRecord b = sample_record();
  b.id = "j-2";
  ASSERT_EQ(journal.save(a), "");
  ASSERT_EQ(journal.save(b), "");
  {
    std::ofstream garbage(dir + "/j-3.job");
    garbage << "not a journal entry\n";
  }
  std::vector<std::string> diagnostics;
  const std::vector<JobRecord> loaded = journal.load_all(&diagnostics);
  ASSERT_EQ(loaded.size(), 2U);
  EXPECT_EQ(loaded[0].id, "j-1");
  EXPECT_EQ(loaded[1].id, "j-2");
  ASSERT_EQ(diagnostics.size(), 1U);
  EXPECT_NE(diagnostics[0].find("j-3.job"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---- supervision -----------------------------------------------------------

TEST(ServeSupervise, BackoffIsDeterministicCappedAndJittered) {
  dse::RetryPolicy policy;
  policy.initial_backoff_seconds = 0.1;
  policy.max_backoff_seconds = 0.4;
  policy.multiplier = 2.0;
  policy.jitter = 0.5;
  // First attempt has no predecessor failure: no delay.
  EXPECT_EQ(dse::retry_backoff_seconds(policy, 1, 9, 1), 0.0);
  for (std::size_t attempt = 2; attempt <= 8; ++attempt) {
    const double d = dse::retry_backoff_seconds(policy, 1, 9, attempt);
    EXPECT_EQ(d, dse::retry_backoff_seconds(policy, 1, 9, attempt))
        << "jitter must be a pure function of (seed, key, attempt)";
    EXPECT_GT(d, 0.0);
    EXPECT_LE(d, policy.max_backoff_seconds);
    // Jitter only ever shrinks the delay (decorrelation, never extra wait).
    const double base =
        std::min(policy.max_backoff_seconds,
                 policy.initial_backoff_seconds *
                     std::pow(policy.multiplier,
                              static_cast<double>(attempt - 2)));
    EXPECT_LE(d, base);
    EXPECT_GE(d, base * (1.0 - policy.jitter) - 1e-12);
  }
  // Different keys decorrelate.
  EXPECT_NE(dse::retry_backoff_seconds(policy, 1, 9, 3),
            dse::retry_backoff_seconds(policy, 1, 10, 3));
}

TEST(ServeSupervise, CircuitOpensAfterMaxAttempts) {
  dse::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 0.01;
  dse::RetrySupervisor supervisor(policy, 42);
  const auto first = supervisor.on_failure(5);
  EXPECT_TRUE(first.retry);
  EXPECT_EQ(first.attempt, 2U);
  const auto second = supervisor.on_failure(5);
  EXPECT_TRUE(second.retry);
  EXPECT_EQ(second.attempt, 3U);
  const auto third = supervisor.on_failure(5);
  EXPECT_FALSE(third.retry) << "third failure must open the circuit";
  EXPECT_EQ(supervisor.attempts(5), 3U);
  EXPECT_EQ(supervisor.retries_granted(), 2U);
  // Independent keys have independent circuits.
  EXPECT_TRUE(supervisor.on_failure(6).retry);
}

// ---- durability ------------------------------------------------------------

TEST(ServeDurability, AtomicWriteSurvivesFsyncFailureDegraded) {
  const std::string dir = temp_dir("atomic_write");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/out.txt";
  // Healthy write: no diagnostic.
  EXPECT_EQ(dse::atomic_write_file(path, "v1"), "");
  // Injected fsync failure: the write is still published (rename happened),
  // but the caller is told durability degraded.
  const std::string diag = dse::atomic_write_file(path, "v2", true);
  EXPECT_NE(diag.find("durability degraded"), std::string::npos) << diag;
  std::ifstream in(path);
  std::string content;
  std::getline(in, content);
  EXPECT_EQ(content, "v2");
  std::filesystem::remove_all(dir);
}

TEST(ServeDurability, SyncFailFaultKeyParsesFromEnv) {
  ::setenv("ASPMT_FAULT_INJECT", "sync-fail", 1);
  EXPECT_TRUE(dse::FaultPlan::from_env().sync_fail);
  ::setenv("ASPMT_FAULT_INJECT", "worker-throw=0", 1);
  EXPECT_FALSE(dse::FaultPlan::from_env().sync_fail);
  ::unsetenv("ASPMT_FAULT_INJECT");
  EXPECT_FALSE(dse::FaultPlan::from_env().sync_fail);
}

TEST(ServeDurability, ExplorerReportsDegradedCheckpointButCompletes) {
  const std::string dir = temp_dir("ckpt_syncfail");
  std::filesystem::create_directories(dir);
  dse::FaultPlan fault;
  fault.sync_fail = true;
  dse::ExploreOptions opts;
  opts.common.checkpoint_path = dir + "/run.ckpt";
  opts.common.fault = &fault;
  const dse::ExploreResult r = dse::explore(test::chain3_bus(), opts);
  EXPECT_TRUE(r.stats.complete);
  ASSERT_FALSE(r.errors.empty());
  EXPECT_NE(r.errors.front().find("durability degraded"), std::string::npos)
      << r.errors.front();
  // Degraded means fsync was skipped, not that the data is bad: the final
  // checkpoint is still on disk and loadable.
  dse::Checkpoint ckpt;
  EXPECT_EQ(dse::load_checkpoint(opts.common.checkpoint_path, ckpt), "");
  EXPECT_EQ(ckpt.points, r.front);
  std::filesystem::remove_all(dir);
}

// ---- server: happy path ----------------------------------------------------

TEST(ServeServer, CompletedJobMatchesSequentialExplore) {
  const synth::Specification spec = test::chain3_bus();
  const dse::ExploreResult seq = dse::explore(spec);
  ASSERT_TRUE(seq.stats.complete);

  Server server(small_server(temp_dir("happy")));
  ASSERT_TRUE(server.start().empty());
  JobRequest req;
  req.spec_text = spec_text(spec);
  const SubmitOutcome out = server.submit(std::move(req));
  ASSERT_TRUE(out.accepted) << out.reject_reason << ": " << out.detail;
  EXPECT_EQ(out.job_id, "j-1");
  const Server::StatusResult status = server.wait(out.job_id, 60.0);
  ASSERT_TRUE(status.known);
  ASSERT_EQ(status.record.state, JobState::Completed) << status.record.error;
  EXPECT_TRUE(status.record.complete);
  EXPECT_EQ(status.record.front, seq.front);
  EXPECT_EQ(status.record.attempts, 1U);
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, 1U);
  EXPECT_EQ(stats.completed, 1U);
  std::filesystem::remove_all(server.options().journal_dir);
}

TEST(ServeServer, InvalidSpecIsRejectedStructurally) {
  Server server(small_server(""));
  ASSERT_TRUE(server.start().empty());
  // One text that does not parse, two that parse but fail validation.
  const std::string inputs[] = {"this is not a specification",
                                test::negative_energy_spec_text(),
                                test::self_message_spec_text()};
  for (const std::string& text : inputs) {
    JobRequest req;
    req.spec_text = text;
    const SubmitOutcome out = server.submit(std::move(req));
    EXPECT_FALSE(out.accepted);
    EXPECT_EQ(out.reject_reason, "invalid-spec");
    EXPECT_FALSE(out.detail.empty());
  }
  EXPECT_EQ(server.stats().rejected, 3U);
  server.drain();
}

TEST(ServeServer, UnknownJobIdsAreNotKnown) {
  Server server(small_server(""));
  ASSERT_TRUE(server.start().empty());
  EXPECT_FALSE(server.status("j-404").known);
  EXPECT_FALSE(server.wait("j-404", 0.05).known);
  EXPECT_FALSE(server.cancel("j-404"));
  server.drain();
}

// ---- server: admission control and shedding --------------------------------

TEST(ServeServer, TenantOverQuotaGetsStructuredOverloadNeverAHang) {
  auto gate = std::make_shared<Gate>();
  ServerOptions opts = small_server("");
  opts.tenant_quota = 1;
  Server server(std::move(opts));
  ASSERT_TRUE(server.start().empty());

  JobRequest blocker;
  blocker.tenant = "acme";
  blocker.spec_text = spec_text(test::two_proc_bus());
  blocker.before_attempt = [gate](std::size_t) { gate->wait(); };
  const SubmitOutcome first = server.submit(std::move(blocker));
  ASSERT_TRUE(first.accepted);

  // The quota counts live (queued + running) jobs, so the rejection holds
  // whether or not the worker picked the blocker up yet.
  JobRequest second;
  second.tenant = "acme";
  second.spec_text = spec_text(test::two_proc_bus());
  const SubmitOutcome rejected = server.submit(std::move(second));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reject_reason, "overload");
  EXPECT_EQ(rejected.detail, "tenant quota exceeded");

  // A different tenant is unaffected.
  JobRequest other;
  other.tenant = "zenith";
  other.spec_text = spec_text(test::two_proc_bus());
  EXPECT_TRUE(server.submit(std::move(other)).accepted);

  gate->release();
  server.drain();
}

TEST(ServeServer, FullQueueRejectsWithOverload) {
  auto gate = std::make_shared<Gate>();
  ServerOptions opts = small_server("");
  opts.max_queue_depth = 2;
  opts.shed_watermark = 2;  // shedding off for this test
  Server server(std::move(opts));
  ASSERT_TRUE(server.start().empty());

  JobRequest blocker;
  blocker.spec_text = spec_text(test::two_proc_bus());
  blocker.before_attempt = [gate](std::size_t) { gate->wait(); };
  ASSERT_TRUE(server.submit(std::move(blocker)).accepted);
  // Wait until the single worker runs the blocker (queued -> running).
  while (server.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 2; ++i) {
    JobRequest filler;
    filler.spec_text = spec_text(test::two_proc_bus());
    ASSERT_TRUE(server.submit(std::move(filler)).accepted) << i;
  }
  JobRequest overflow;
  overflow.spec_text = spec_text(test::two_proc_bus());
  const SubmitOutcome rejected = server.submit(std::move(overflow));
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reject_reason, "overload");
  EXPECT_EQ(rejected.detail, "queue full");
  gate->release();
  server.drain();
}

TEST(ServeServer, ShedsNewestLowestPriorityFirst) {
  auto gate = std::make_shared<Gate>();
  ServerOptions opts = small_server("");
  opts.max_queue_depth = 64;
  opts.shed_watermark = 1;
  Server server(std::move(opts));
  ASSERT_TRUE(server.start().empty());

  JobRequest blocker;
  blocker.spec_text = spec_text(test::two_proc_bus());
  blocker.before_attempt = [gate](std::size_t) { gate->wait(); };
  ASSERT_TRUE(server.submit(std::move(blocker)).accepted);
  while (server.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  JobRequest keeper;
  keeper.spec_text = spec_text(test::two_proc_bus());
  keeper.priority = 5;
  const SubmitOutcome kept = server.submit(std::move(keeper));
  ASSERT_TRUE(kept.accepted);

  // Queue is now at the watermark; the next admission triggers a shed and
  // the victim is the lowest-priority queued job — the newcomer itself.
  JobRequest doomed;
  doomed.spec_text = spec_text(test::two_proc_bus());
  doomed.priority = 1;
  const SubmitOutcome shed = server.submit(std::move(doomed));
  ASSERT_TRUE(shed.accepted) << "shedding is post-admission, not rejection";
  const Server::StatusResult shed_status = server.wait(shed.job_id, 5.0);
  ASSERT_TRUE(shed_status.known);
  EXPECT_EQ(shed_status.record.state, JobState::Shed);
  EXPECT_NE(shed_status.record.error.find("load shed"), std::string::npos);

  // A high-priority late arrival displaces the older low-priority job
  // instead of being shed itself.
  JobRequest urgent;
  urgent.spec_text = spec_text(test::two_proc_bus());
  urgent.priority = 9;
  const SubmitOutcome kept2 = server.submit(std::move(urgent));
  ASSERT_TRUE(kept2.accepted);
  const Server::StatusResult old_status = server.wait(kept.job_id, 5.0);
  EXPECT_EQ(old_status.record.state, JobState::Shed)
      << "priority 5 should be shed to make room under priority 9";

  gate->release();
  const Server::StatusResult urgent_status = server.wait(kept2.job_id, 60.0);
  EXPECT_EQ(urgent_status.record.state, JobState::Completed);
  server.drain();
  EXPECT_EQ(server.stats().shed, 2U);
}

// ---- server: cancellation and supervision ----------------------------------

TEST(ServeServer, CancelWinsAgainstQueuedAndRunningJobs) {
  auto gate = std::make_shared<Gate>();
  Server server(small_server(""));
  ASSERT_TRUE(server.start().empty());

  JobRequest running;
  running.spec_text = spec_text(test::two_proc_bus());
  running.before_attempt = [gate](std::size_t) { gate->wait(); };
  const SubmitOutcome r = server.submit(std::move(running));
  ASSERT_TRUE(r.accepted);
  while (server.stats().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  JobRequest queued;
  queued.spec_text = spec_text(test::two_proc_bus());
  const SubmitOutcome q = server.submit(std::move(queued));
  ASSERT_TRUE(q.accepted);

  // Queued cancel resolves immediately, before any worker touches it.
  EXPECT_TRUE(server.cancel(q.job_id));
  const Server::StatusResult qs = server.status(q.job_id);
  EXPECT_EQ(qs.record.state, JobState::Cancelled);
  EXPECT_EQ(qs.record.attempts, 0U);

  // Running cancel trips the attempt's budget; the gate releases after so
  // the cancellation is already sticky when the explorer starts.
  EXPECT_TRUE(server.cancel(r.job_id));
  gate->release();
  const Server::StatusResult rs = server.wait(r.job_id, 60.0);
  EXPECT_EQ(rs.record.state, JobState::Cancelled);
  server.drain();
  EXPECT_EQ(server.stats().cancelled, 2U);
}

TEST(ServeServer, FlakyAttemptIsRetriedWithBackoffAndConverges) {
  const synth::Specification spec = test::chain3_bus();
  const dse::ExploreResult seq = dse::explore(spec);

  Server server(small_server(temp_dir("flaky")));
  ASSERT_TRUE(server.start().empty());
  auto gate = std::make_shared<Gate>();
  auto events = std::make_shared<std::vector<JobEvent::Kind>>();
  auto events_mutex = std::make_shared<std::mutex>();
  JobRequest req;
  req.spec_text = spec_text(spec);
  // The gate holds attempt 1 until the subscriber below is registered, so
  // the Requeue event cannot race past it.
  req.before_attempt = [gate](std::size_t attempt) {
    gate->wait();
    if (attempt == 1) throw std::runtime_error("injected worker loss");
  };
  const SubmitOutcome out = server.submit(std::move(req));
  ASSERT_TRUE(out.accepted);
  ASSERT_TRUE(server.subscribe(out.job_id, [=](const JobEvent& ev) {
    const std::lock_guard<std::mutex> lock(*events_mutex);
    events->push_back(ev.kind);
  }));
  gate->release();
  const Server::StatusResult status = server.wait(out.job_id, 60.0);
  ASSERT_EQ(status.record.state, JobState::Completed) << status.record.error;
  EXPECT_EQ(status.record.attempts, 2U);
  EXPECT_TRUE(status.record.complete);
  EXPECT_EQ(status.record.front, seq.front);
  server.drain();
  EXPECT_EQ(server.stats().retries, 1U);
  {
    const std::lock_guard<std::mutex> lock(*events_mutex);
    EXPECT_NE(std::count(events->begin(), events->end(),
                         JobEvent::Kind::Requeue), 0);
    EXPECT_EQ(std::count(events->begin(), events->end(), JobEvent::Kind::Done),
              1);
  }
  std::filesystem::remove_all(server.options().journal_dir);
}

TEST(ServeServer, PersistentFailureQuarantinesAfterMaxAttempts) {
  ServerOptions opts = small_server("");
  opts.retry.max_attempts = 3;
  Server server(std::move(opts));
  ASSERT_TRUE(server.start().empty());
  JobRequest req;
  req.spec_text = spec_text(test::two_proc_bus());
  req.before_attempt = [](std::size_t) {
    throw std::runtime_error("always broken");
  };
  const SubmitOutcome out = server.submit(std::move(req));
  ASSERT_TRUE(out.accepted);
  const Server::StatusResult status = server.wait(out.job_id, 60.0);
  EXPECT_EQ(status.record.state, JobState::Quarantined);
  EXPECT_EQ(status.record.attempts, 3U);
  EXPECT_EQ(status.record.error, "always broken");
  server.drain();
  EXPECT_EQ(server.stats().quarantined, 1U);
  EXPECT_EQ(server.stats().retries, 2U);
}

// ---- server: drain and recovery --------------------------------------------

TEST(ServeServer, DrainingServerRejectsNewSubmits) {
  Server server(small_server(""));
  ASSERT_TRUE(server.start().empty());
  server.drain();
  JobRequest req;
  req.spec_text = spec_text(test::two_proc_bus());
  const SubmitOutcome out = server.submit(std::move(req));
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reject_reason, "draining");
  // Idempotent.
  server.drain();
}

TEST(ServeServer, RestartRecoversTerminalAndQueuedJobs) {
  const std::string dir = temp_dir("recovery");
  const synth::Specification diamond = test::diamond_two_proc();
  const dse::ExploreResult seq = dse::explore(diamond);
  std::string completed_id;
  std::vector<pareto::Vec> completed_front;
  {
    Server first(small_server(dir));
    ASSERT_TRUE(first.start().empty());
    JobRequest req;
    req.spec_text = spec_text(test::chain3_bus());
    const SubmitOutcome out = first.submit(std::move(req));
    ASSERT_TRUE(out.accepted);
    completed_id = out.job_id;
    const Server::StatusResult st = first.wait(out.job_id, 60.0);
    ASSERT_EQ(st.record.state, JobState::Completed);
    completed_front = st.record.front;
    first.drain();
  }
  // A queued record left behind by a crashed daemon (never started here).
  {
    JobRecord orphan;
    orphan.id = "j-50";
    orphan.tenant = "default";
    orphan.state = JobState::Queued;
    orphan.spec_text = spec_text(diamond);
    ASSERT_EQ(JobJournal(dir).save(orphan), "");
  }
  Server second(small_server(dir));
  ASSERT_TRUE(second.start().empty());
  // The finished job survives the restart with its front intact...
  const Server::StatusResult old_job = second.status(completed_id);
  ASSERT_TRUE(old_job.known);
  EXPECT_EQ(old_job.record.state, JobState::Completed);
  EXPECT_EQ(old_job.record.front, completed_front);
  // ...the orphaned queued job is re-admitted and runs to the exact front...
  const Server::StatusResult orphan = second.wait("j-50", 60.0);
  ASSERT_TRUE(orphan.known);
  ASSERT_EQ(orphan.record.state, JobState::Completed) << orphan.record.error;
  EXPECT_EQ(orphan.record.front, seq.front);
  // ...and the id counter resumes past every journaled id.
  JobRequest fresh;
  fresh.spec_text = spec_text(test::two_proc_bus());
  const SubmitOutcome out = second.submit(std::move(fresh));
  ASSERT_TRUE(out.accepted);
  EXPECT_EQ(out.job_id, "j-51");
  (void)second.wait(out.job_id, 60.0);
  second.drain();
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, CorruptJournalEntryIsAStartDiagnosticNotAFailure) {
  const std::string dir = temp_dir("corrupt_journal");
  std::filesystem::create_directories(dir);
  {
    std::ofstream garbage(dir + "/j-1.job");
    garbage << "torn write\n";
  }
  Server server(small_server(dir));
  const std::vector<std::string> diagnostics = server.start();
  ASSERT_EQ(diagnostics.size(), 1U);
  EXPECT_NE(diagnostics[0].find("j-1.job"), std::string::npos);
  // The daemon is healthy: fresh submits run normally.
  JobRequest req;
  req.spec_text = spec_text(test::two_proc_bus());
  const SubmitOutcome out = server.submit(std::move(req));
  ASSERT_TRUE(out.accepted);
  EXPECT_EQ(server.wait(out.job_id, 60.0).record.state, JobState::Completed);
  server.drain();
  std::filesystem::remove_all(dir);
}

TEST(ServeServer, SubscriberSeesFrontDeltasBeforeDone) {
  auto gate = std::make_shared<Gate>();
  Server server(small_server(""));
  ASSERT_TRUE(server.start().empty());
  JobRequest req;
  req.spec_text = spec_text(test::chain3_bus());
  req.before_attempt = [gate](std::size_t) { gate->wait(); };
  const SubmitOutcome out = server.submit(std::move(req));
  ASSERT_TRUE(out.accepted);

  auto mutex = std::make_shared<std::mutex>();
  auto kinds = std::make_shared<std::vector<JobEvent::Kind>>();
  ASSERT_TRUE(server.subscribe(out.job_id, [=](const JobEvent& ev) {
    const std::lock_guard<std::mutex> lock(*mutex);
    kinds->push_back(ev.kind);
  }));
  gate->release();
  ASSERT_EQ(server.wait(out.job_id, 60.0).record.state, JobState::Completed);
  server.drain();
  const std::lock_guard<std::mutex> lock(*mutex);
  ASSERT_FALSE(kinds->empty());
  EXPECT_NE(std::count(kinds->begin(), kinds->end(),
                       JobEvent::Kind::FrontDelta), 0)
      << "archive insertions must stream to subscribers";
  EXPECT_EQ(kinds->back(), JobEvent::Kind::Done);
  EXPECT_EQ(std::count(kinds->begin(), kinds->end(), JobEvent::Kind::Done), 1);
}

// ---- daemon process: the kill-9 differential --------------------------------
// ASPMT_SERVED_BIN points at the real daemon binary; these tests cover the
// full fork/exec + unix socket + SIGKILL + restart path end to end.
#ifdef ASPMT_SERVED_BIN

pid_t spawn_daemon(const std::string& socket_path, const std::string& journal,
                   const char* workers, const char* ckpt_interval) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl(ASPMT_SERVED_BIN, "aspmt_served", "serve", "--socket",
            socket_path.c_str(), "--journal", journal.c_str(), "--workers",
            workers, "--checkpoint-interval", ckpt_interval,
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  return pid;
}

std::string connect_with_retry(Client& client, const std::string& socket_path,
                               double timeout_seconds) {
  std::string err = "timed out";
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    err = client.connect(socket_path);
    if (err.empty()) return "";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return err;
}

TEST(ServeDaemon, Kill9ThenRestartConvergesToTheSameFront) {
  // A spec heavy enough that SIGKILL lands mid-exploration on any machine
  // fast or slow — and if it does complete first, the differential still
  // holds: the restarted daemon must serve the identical recorded front.
  gen::GeneratorConfig cfg;
  cfg.seed = 5;
  cfg.tasks = 14;
  cfg.architecture = gen::Architecture::Mesh2x2;
  const synth::Specification spec = gen::generate(cfg);
  const dse::ExploreResult seq = dse::explore(spec);
  ASSERT_TRUE(seq.stats.complete);

  const std::string dir = temp_dir("kill9");
  const std::string socket_path =
      "/tmp/aspmt_served_t" + std::to_string(::getpid()) + ".sock";

  const pid_t first = spawn_daemon(socket_path, dir, "1", "0.05");
  ASSERT_GT(first, 0);
  {
    Client client;
    ASSERT_EQ(connect_with_retry(client, socket_path, 10.0), "");
    Json req = Json::object();
    req.set("op", "submit");
    req.set("spec", spec_text(spec));
    Json ack;
    ASSERT_EQ(client.request(req, ack), "");
    ASSERT_TRUE(ack.get("ok").as_bool()) << ack.dump();
    EXPECT_EQ(ack.get("job").as_string(), "j-1");
  }
  // Let the job run long enough for admission + first checkpoints, then
  // kill without any chance to clean up.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(first, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(first, &status, 0), first);
  ASSERT_TRUE(WIFSIGNALED(status));

  const pid_t second = spawn_daemon(socket_path, dir, "1", "0.05");
  ASSERT_GT(second, 0);
  {
    Client client;
    ASSERT_EQ(connect_with_retry(client, socket_path, 10.0), "");
    Json req = Json::object();
    req.set("op", "result");
    req.set("job", "j-1");
    Json result;
    ASSERT_EQ(client.request(req, result), "");
    ASSERT_TRUE(result.get("ok").as_bool()) << result.dump();
    EXPECT_EQ(result.get("state").as_string(), "completed");
    EXPECT_TRUE(result.get("complete").as_bool());
    std::vector<pareto::Vec> front;
    for (const Json& point : result.get("front").items()) {
      pareto::Vec p;
      for (const Json& v : point.items()) p.push_back(v.as_int());
      front.push_back(std::move(p));
    }
    EXPECT_EQ(front, seq.front)
        << "kill-9 recovery must converge to the exact batch front";

    Json drain = Json::object();
    drain.set("op", "drain");
    ASSERT_EQ(client.send(drain), "");
    std::string line;
    ASSERT_EQ(client.read_line(line), "");
  }
  ASSERT_EQ(::waitpid(second, &status, 0), second);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "SIGTERM/drain path must exit cleanly, got status " << status;
  std::filesystem::remove_all(dir);
  std::filesystem::remove(socket_path);
}

#endif  // ASPMT_SERVED_BIN

}  // namespace
}  // namespace aspmt::serve
