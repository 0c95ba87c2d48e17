// Tier-2 soak: hammer the exploration service with concurrent submits,
// cancellations, injected attempt failures and deliberate overload at 2 and
// 4 workers, then hold it to the exactness contract — every job that
// reports `completed` must carry the identical front the batch explorer
// computes for its spec, and every admitted job must reach exactly one
// terminal state (no hangs, no lost jobs, no double counting).  Runs clean
// under TSan: all cross-thread traffic goes through the server's own API.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dse/explorer.hpp"
#include "serve/journal.hpp"
#include "synth/specio.hpp"
#include "synth_fixtures.hpp"

namespace aspmt::serve {
namespace {

struct Golden {
  std::string text;
  std::vector<pareto::Vec> front;
};

std::vector<Golden> golden_fixtures() {
  std::vector<Golden> out;
  for (const synth::Specification& spec :
       {test::two_proc_bus(), test::chain3_bus(), test::diamond_two_proc()}) {
    const dse::ExploreResult seq = dse::explore(spec);
    EXPECT_TRUE(seq.stats.complete);
    out.push_back({synth::to_text(spec), seq.front});
  }
  return out;
}

struct Accepted {
  std::string id;
  std::size_t fixture;
  bool flaky;
  bool certify;
  bool top_priority;
};

void soak(std::size_t workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  const std::vector<Golden> goldens = golden_fixtures();

  const std::string dir = ::testing::TempDir() + "aspmt_serve_soak_" +
                          std::to_string(workers);
  std::filesystem::remove_all(dir);

  ServerOptions opts;
  opts.journal_dir = dir;
  opts.workers = workers;
  opts.max_queue_depth = 12;   // small enough that overload really happens
  opts.shed_watermark = 10;
  opts.tenant_quota = 10;
  opts.drain_grace_seconds = 30.0;
  opts.retry.max_attempts = 3;
  opts.retry.initial_backoff_seconds = 0.001;
  opts.retry.max_backoff_seconds = 0.005;
  opts.seed = 7 + workers;
  Server server(std::move(opts));
  ASSERT_TRUE(server.start().empty());

  constexpr std::size_t kSubmitters = 3;
  constexpr std::size_t kJobsPerSubmitter = 8;

  std::mutex accepted_mutex;
  std::vector<Accepted> accepted;
  std::atomic<std::size_t> rejected{0};
  std::atomic<std::size_t> events_seen{0};

  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (std::size_t j = 0; j < kJobsPerSubmitter; ++j) {
        const std::size_t n = s * kJobsPerSubmitter + j;
        const std::size_t fixture = n % goldens.size();
        const bool flaky = n % 3 == 0;
        JobRequest req;
        req.tenant = 't';
        req.tenant += std::to_string(s % 2);
        req.spec_text = goldens[fixture].text;
        req.priority = static_cast<std::int64_t>(n % 4);
        // Certification is asserted for clean first-attempt completions, so
        // flaky jobs skip it.  (A retried attempt certifies too — Session
        // restarts through reuse_checkpoint — which the Session tests pin;
        // here the flaky jobs only churn the retry path.)  Top-priority jobs
        // certify too: they run to the end, so every soak completes some
        // one-thread certified jobs, whose proofs are checked while they are
        // written.
        const bool certify = !flaky && (n % 4 == 1 || n % 4 == 3);
        req.certify = certify;
        if (flaky) {
          req.before_attempt = [](std::size_t attempt) {
            if (attempt == 1) throw std::runtime_error("soak: injected loss");
          };
        }
        SubmitOutcome out = server.submit(std::move(req));
        if (!out.accepted) {
          // Overload is an expected, structured outcome under this load —
          // anything else would be a real failure.
          EXPECT_EQ(out.reject_reason, "overload") << out.detail;
          ++rejected;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          continue;
        }
        (void)server.subscribe(
            out.job_id, [&](const JobEvent&) { ++events_seen; });
        const std::lock_guard<std::mutex> lock(accepted_mutex);
        accepted.push_back({out.job_id, fixture, flaky, certify, n % 4 == 3});
      }
    });
  }

  // Cancel a rotating slice of whatever has been admitted so far, racing
  // the workers and the retry path.  Top-priority jobs are spared: the
  // shedder takes them last, and fewer of them exist than its watermark, so
  // every admitted one runs to the end however slow the build.
  std::thread canceller([&] {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::string> victims;
      {
        const std::lock_guard<std::mutex> lock(accepted_mutex);
        for (std::size_t i = round; i < accepted.size(); i += 7) {
          if (!accepted[i].top_priority) victims.push_back(accepted[i].id);
        }
      }
      for (const std::string& id : victims) EXPECT_TRUE(server.cancel(id));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  for (std::thread& t : submitters) t.join();
  canceller.join();

  // Every admitted job must reach exactly one terminal state — the wait
  // has a generous timeout so a lost job fails loudly instead of hanging.
  std::size_t completed = 0;
  std::size_t certified_checked = 0;
  for (const Accepted& job : accepted) {
    const Server::StatusResult status = server.wait(job.id, 120.0);
    ASSERT_TRUE(status.known) << job.id;
    ASSERT_TRUE(is_terminal(status.record.state))
        << job.id << " stuck in " << to_string(status.record.state);
    if (status.record.state == JobState::Completed && status.record.complete) {
      ++completed;
      EXPECT_EQ(status.record.front, goldens[job.fixture].front)
          << job.id << ": a completed job must carry the exact batch front";
      if (job.certify && status.record.attempts == 1) {
        ++certified_checked;
        EXPECT_TRUE(status.record.certified)
            << job.id << ": clean first-attempt certify run must certify";
      }
    }
  }
  EXPECT_GT(completed, 0U) << "soak must complete at least some jobs";
  EXPECT_GT(certified_checked, 0U)
      << "soak must complete at least one clean certify job";

  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admitted, accepted.size());
  EXPECT_EQ(stats.rejected, rejected.load());
  EXPECT_EQ(stats.completed + stats.cancelled + stats.shed + stats.quarantined,
            accepted.size())
      << "terminal states must partition the admitted jobs";
  EXPECT_EQ(stats.queued, 0U);
  EXPECT_EQ(stats.running, 0U);
  // Done fires once per admitted job (subscribers were registered for all).
  EXPECT_GE(events_seen.load(), accepted.size());

  std::filesystem::remove_all(dir);
}

TEST(ServeStress, ConcurrentSubmitCancelOverloadTwoWorkers) { soak(2); }

TEST(ServeStress, ConcurrentSubmitCancelOverloadFourWorkers) { soak(4); }

}  // namespace
}  // namespace aspmt::serve
