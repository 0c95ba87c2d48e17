// Observability subsystem contract tests (DESIGN.md §11):
//
//   1. the event stream is faithful — replaying the archive events of a run
//      reconstructs exactly the front the run returned, and the metrics
//      snapshot agrees with ExploreStats field for field;
//   2. the ring drops and never blocks — concurrent producers on tiny rings
//      lose events, not ordering, and every event is either seen or counted
//      (run under TSan in the sanitize CI job);
//   3. the zero-observer path is inert — certified runs produce
//      byte-identical proof streams and identical fronts with and without a
//      sink attached, sequentially and at 1/2/4 portfolio threads;
//   4. the stock exporters emit well-formed output.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "obs/collector.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/ring.hpp"
#include "obs/sink.hpp"
#include "pareto/archive.hpp"
#include "synth_fixtures.hpp"

namespace aspmt {
namespace {

/// Collects the full event stream in memory.  Safe to inspect once the
/// explorer has returned (the collector is stopped before the result is
/// assembled).
class CaptureSink final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override { events.push_back(e); }
  void on_drop(std::uint64_t dropped) override { dropped_total += dropped; }
  void flush() override { ++flush_calls; }

  [[nodiscard]] std::uint64_t count(obs::EventKind kind) const {
    std::uint64_t n = 0;
    for (const obs::Event& e : events) n += e.kind == kind ? 1 : 0;
    return n;
  }

  std::vector<obs::Event> events;
  std::uint64_t dropped_total = 0;
  int flush_calls = 0;
};

// ---- 1. Faithful event stream ---------------------------------------------

TEST(Obs, ReplayingArchiveEventsReconstructsTheFront) {
  using SpecFn = synth::Specification (*)();
  for (const SpecFn make : {SpecFn{&test::two_proc_bus},
                            SpecFn{&test::chain3_bus},
                            SpecFn{&test::diamond_two_proc}}) {
    const synth::Specification spec = make();
    CaptureSink sink;
    dse::ExploreOptions opts;
    opts.common.sink = &sink;
    const dse::ExploreResult r = dse::explore(spec, opts);
    ASSERT_TRUE(r.stats.complete);

    const auto replay = pareto::make_archive("linear", 3);
    for (const obs::Event& e : sink.events) {
      if (e.kind == obs::EventKind::ArchiveInsert) {
        replay->insert(pareto::Vec{e.a, e.b, e.c});
      }
    }
    std::vector<pareto::Vec> replayed = replay->points();
    std::sort(replayed.begin(), replayed.end());
    std::vector<pareto::Vec> front = r.front;
    std::sort(front.begin(), front.end());
    EXPECT_EQ(replayed, front);
  }
}

TEST(Obs, EventStreamHasRunAndWorkerBrackets) {
  CaptureSink sink;
  dse::ExploreOptions opts;
  opts.common.sink = &sink;
  const dse::ExploreResult r = dse::explore(test::chain3_bus(), opts);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_EQ(sink.count(obs::EventKind::RunStart), 1U);
  EXPECT_EQ(sink.count(obs::EventKind::RunEnd), 1U);
  EXPECT_EQ(sink.count(obs::EventKind::WorkerStart), 1U);
  EXPECT_EQ(sink.count(obs::EventKind::WorkerEnd), 1U);
  EXPECT_EQ(sink.count(obs::EventKind::ModelFound), r.stats.models);
  // Solve calls bracket correctly and the stream was flushed exactly once.
  EXPECT_EQ(sink.count(obs::EventKind::SolveStart),
            sink.count(obs::EventKind::SolveEnd));
  EXPECT_GT(sink.count(obs::EventKind::SolveStart), 0U);
  EXPECT_EQ(sink.flush_calls, 1);
  // The final RunEnd reports the front the result carries.
  const obs::Event& last = sink.events.back();
  EXPECT_EQ(last.kind, obs::EventKind::RunEnd);
  EXPECT_EQ(last.a, static_cast<std::int64_t>(r.front.size()));
}

TEST(Obs, MetricsSnapshotMatchesExploreStats) {
  obs::MetricsRegistry reg;
  dse::ExploreOptions opts;
  opts.common.metrics = &reg;
  const dse::ExploreResult r = dse::explore(test::chain3_bus(), opts);
  ASSERT_TRUE(r.stats.complete);
  EXPECT_EQ(reg.counter("explore.models").value(), r.stats.models);
  EXPECT_EQ(reg.counter("explore.prunings").value(), r.stats.prunings);
  EXPECT_EQ(reg.counter("explore.conflicts").value(), r.stats.conflicts);
  EXPECT_EQ(reg.counter("explore.decisions").value(), r.stats.decisions);
  EXPECT_EQ(reg.counter("explore.propagations").value(),
            r.stats.propagations);
  EXPECT_EQ(reg.counter("explore.theory_clauses").value(),
            r.stats.theory_clauses);
  EXPECT_EQ(reg.counter("explore.archive_comparisons").value(),
            r.stats.archive_comparisons);
  EXPECT_EQ(reg.counter("explore.clauses_imported").value(),
            r.stats.clauses_imported);
  EXPECT_EQ(r.stats.clauses_imported, 0U);  // one worker: no peers
  EXPECT_EQ(reg.counter("explore.front_size").value(), r.front.size());
  EXPECT_EQ(reg.gauge("explore.complete").value(), 1.0);
  EXPECT_EQ(reg.gauge("explore.certify_tail_seconds").value(),
            r.stats.certify_tail_seconds);
  EXPECT_EQ(r.stats.certify_tail_seconds, 0.0);  // certification off
  // Per-insert archive work was observed once per accepted model.
  EXPECT_EQ(reg.histogram("archive.comparisons_per_insert").count(),
            r.stats.models);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"explore.models\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

TEST(Obs, CertifiedMetricsCarryTheCertifyTail) {
  obs::MetricsRegistry reg;
  dse::ExploreOptions opts;
  opts.common.metrics = &reg;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(test::chain3_bus(), opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  EXPECT_GT(r.stats.certify_tail_seconds, 0.0);
  EXPECT_EQ(reg.gauge("explore.certify_tail_seconds").value(),
            r.stats.certify_tail_seconds);
  EXPECT_EQ(reg.gauge("explore.seconds").value(), r.stats.seconds);
}

TEST(Obs, ParallelMetricsMatchAggregatedStats) {
  obs::MetricsRegistry reg;
  dse::ParallelExploreOptions opts;
  opts.threads = 4;
  opts.common.metrics = &reg;
  const dse::ParallelExploreResult r =
      dse::explore_parallel(test::chain3_bus(), opts);
  ASSERT_TRUE(r.base.stats.complete);
  EXPECT_EQ(reg.counter("explore.models").value(), r.base.stats.models);
  EXPECT_EQ(reg.counter("explore.conflicts").value(), r.base.stats.conflicts);
  std::uint64_t worker_conflicts = 0;
  std::uint64_t worker_imports = 0;
  for (const dse::WorkerReport& w : r.workers) {
    const std::string prefix = "worker." + std::to_string(w.worker);
    worker_conflicts += reg.counter(prefix + ".conflicts").value();
    worker_imports += reg.counter(prefix + ".clauses_imported").value();
    EXPECT_EQ(reg.counter(prefix + ".clauses_exported").value(),
              w.clauses_exported);
  }
  EXPECT_EQ(worker_conflicts, r.base.stats.conflicts);
  EXPECT_EQ(worker_imports, r.base.stats.clauses_imported);
  EXPECT_EQ(reg.counter("explore.clauses_imported").value(),
            r.base.stats.clauses_imported);
}

// ---- 2. Ring: drop, never block -------------------------------------------

TEST(Obs, RingDropsWhenFullAndAccountsEveryEvent) {
  obs::Recorder rec(0, obs::Recorder::Clock::now(), /*ring_capacity=*/8);
  rec.set_enabled(true);
  for (std::int64_t i = 0; i < 100; ++i) {
    rec.record(obs::EventKind::ModelFound, i);
  }
  std::vector<obs::Event> seen;
  rec.ring().pop_all(seen);
  EXPECT_EQ(seen.size(), 8U);
  EXPECT_EQ(rec.ring().dropped(), 92U);
  // The survivors are the *oldest* events, in emission order.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].a, static_cast<std::int64_t>(i));
  }
  // Disabled recorders cost nothing and push nothing.
  rec.set_enabled(false);
  rec.record(obs::EventKind::ModelFound, 7);
  std::vector<obs::Event> after;
  rec.ring().pop_all(after);
  EXPECT_TRUE(after.empty());
}

TEST(Obs, ConcurrentProducersNeverBlockAndKeepPerWorkerOrder) {
  // Four producers hammer tiny rings while the collector drains as fast as
  // it can.  Every event is either delivered in per-worker order or counted
  // as dropped — and the producers never wait.  TSan-clean by construction.
  constexpr std::size_t kThreads = 4;
  constexpr std::int64_t kPerThread = 20000;

  struct OrderSink final : obs::EventSink {
    void on_event(const obs::Event& e) override {
      auto [it, fresh] = last.try_emplace(e.worker, -1);
      EXPECT_LT(it->second, e.a) << "per-worker order broken";
      it->second = e.a;
      ++seen[e.worker];
    }
    std::map<std::uint16_t, std::int64_t> last;
    std::map<std::uint16_t, std::uint64_t> seen;
  } sink;

  obs::Collector::Options copts;
  copts.ring_capacity = 1 << 8;
  copts.drain_interval_seconds = 0.0002;
  obs::Collector collector(sink, kThreads, copts);
  collector.start();

  std::vector<std::thread> producers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    producers.emplace_back([&collector, w] {
      obs::Recorder& rec = collector.recorder(w);
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        rec.record(obs::EventKind::StatsSample, i);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  collector.stop();

  for (std::size_t w = 0; w < kThreads; ++w) {
    const std::uint64_t seen = sink.seen[static_cast<std::uint16_t>(w)];
    const std::uint64_t dropped = collector.recorder(w).ring().dropped();
    EXPECT_EQ(seen + dropped, static_cast<std::uint64_t>(kPerThread))
        << "worker " << w;
  }
}

// ---- 3. Zero-observer path is inert ---------------------------------------

TEST(Obs, CertifiedProofIsByteIdenticalWithAndWithoutSink) {
  const synth::Specification spec = test::chain3_bus();
  dse::ExploreOptions plain;
  plain.common.certify = true;
  const dse::ExploreResult without = dse::explore(spec, plain);
  ASSERT_TRUE(without.certified) << without.certificate_error;

  CaptureSink sink;
  obs::MetricsRegistry reg;
  dse::ExploreOptions observed;
  observed.common.certify = true;
  observed.common.sink = &sink;
  observed.common.metrics = &reg;
  const dse::ExploreResult with = dse::explore(spec, observed);
  ASSERT_TRUE(with.certified) << with.certificate_error;

  EXPECT_EQ(with.front, without.front);
  EXPECT_EQ(with.proof, without.proof);  // byte-identical
  EXPECT_EQ(with.stats.models, without.stats.models);
  EXPECT_EQ(with.stats.conflicts, without.stats.conflicts);
  EXPECT_FALSE(sink.events.empty());
}

TEST(Obs, PortfolioFrontUnchangedBySinkAtOneTwoFourThreads) {
  const synth::Specification spec = test::diamond_two_proc();
  const dse::ExploreResult seq = dse::explore(spec);
  ASSERT_TRUE(seq.stats.complete);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    CaptureSink sink;
    dse::ParallelExploreOptions opts;
    opts.threads = threads;
    opts.common.sink = &sink;
    const dse::ParallelExploreResult r = dse::explore_parallel(spec, opts);
    ASSERT_TRUE(r.base.stats.complete) << threads;
    EXPECT_EQ(r.base.front, seq.front) << threads;
    // threads + 1 rings: every worker bracketed, orchestrator brackets run.
    EXPECT_EQ(sink.count(obs::EventKind::WorkerStart), threads);
    EXPECT_EQ(sink.count(obs::EventKind::WorkerEnd), threads);
    EXPECT_EQ(sink.count(obs::EventKind::RunStart), 1U);
    EXPECT_EQ(sink.count(obs::EventKind::RunEnd), 1U);
  }
}

TEST(Obs, ParallelCertifiedProofIsByteIdenticalWithSinkAtOneThread) {
  // threads == 1 runs the worker inline, so the proof stream is
  // deterministic and must not change when observability is attached.
  const synth::Specification spec = test::chain3_bus();
  dse::ParallelExploreOptions plain;
  plain.threads = 1;
  plain.common.certify = true;
  const dse::ParallelExploreResult without =
      dse::explore_parallel(spec, plain);
  ASSERT_TRUE(without.base.certified) << without.base.certificate_error;

  CaptureSink sink;
  dse::ParallelExploreOptions observed;
  observed.threads = 1;
  observed.common.certify = true;
  observed.common.sink = &sink;
  const dse::ParallelExploreResult with =
      dse::explore_parallel(spec, observed);
  ASSERT_TRUE(with.base.certified) << with.base.certificate_error;
  EXPECT_EQ(with.base.front, without.base.front);
  EXPECT_EQ(with.base.proof, without.base.proof);
}

// ---- 4. Exporters ----------------------------------------------------------

/// Structural well-formedness without a JSON parser: balanced braces and
/// brackets outside string literals.
void expect_balanced_json(const std::string& text) {
  long brace = 0;
  long bracket = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{') ++brace;
    else if (c == '}') --brace;
    else if (c == '[') ++bracket;
    else if (c == ']') --bracket;
    EXPECT_GE(brace, 0);
    EXPECT_GE(bracket, 0);
  }
  EXPECT_EQ(brace, 0);
  EXPECT_EQ(bracket, 0);
  EXPECT_FALSE(in_string);
}

TEST(Obs, ChromeTraceExporterEmitsBalancedJsonFromARealRun) {
  std::ostringstream out;
  {
    obs::ChromeTraceExporter chrome(out);
    dse::ParallelExploreOptions opts;
    opts.threads = 2;
    opts.common.sink = &chrome;
    const dse::ParallelExploreResult r =
        dse::explore_parallel(test::chain3_bus(), opts);
    ASSERT_TRUE(r.base.stats.complete);
  }
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);  // solve spans
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"model\""), std::string::npos);
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  expect_balanced_json(text);
}

TEST(Obs, ChromeTraceExporterClosesEvenWithoutEvents) {
  std::ostringstream out;
  obs::ChromeTraceExporter chrome(out);
  chrome.flush();
  expect_balanced_json(out.str());
  EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
}

TEST(Obs, NdjsonExporterEmitsOneObjectPerLine) {
  std::ostringstream out;
  obs::NdjsonExporter ndjson(out);
  CaptureSink capture;
  obs::MultiSink multi;
  multi.add(&ndjson);
  multi.add(&capture);
  dse::ExploreOptions opts;
  opts.common.sink = &multi;
  const dse::ExploreResult r = dse::explore(test::two_proc_bus(), opts);
  ASSERT_TRUE(r.stats.complete);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
    expect_balanced_json(line);
    ++n;
  }
  EXPECT_EQ(n, capture.events.size());  // MultiSink fan-out is lossless
}

TEST(Obs, ProgressMeterPrintsAFinalLine) {
  std::ostringstream out;
  obs::ProgressMeter progress(out);
  dse::ExploreOptions opts;
  opts.common.sink = &progress;
  const dse::ExploreResult r = dse::explore(test::two_proc_bus(), opts);
  ASSERT_TRUE(r.stats.complete);
  const std::string text = out.str();
  EXPECT_NE(text.find("[aspmt]"), std::string::npos);
  EXPECT_NE(text.find("front="), std::string::npos);
  EXPECT_NE(text.find("[done]"), std::string::npos);
}

TEST(Obs, EventKindNamesAreStable) {
  EXPECT_STREQ(obs::kind_name(obs::EventKind::RunStart), "run-start");
  EXPECT_STREQ(obs::kind_name(obs::EventKind::ModelFound), "model-found");
  EXPECT_STREQ(obs::kind_name(obs::EventKind::ArchiveInsert),
               "archive-insert");
  EXPECT_STREQ(obs::kind_name(obs::EventKind::DominancePrune),
               "dominance-prune");
  EXPECT_STREQ(obs::kind_name(obs::EventKind::BudgetTrip), "budget-trip");
  EXPECT_STREQ(obs::kind_name(obs::EventKind::CheckpointWrite),
               "checkpoint-write");
}

TEST(Obs, HistogramBucketsByLog2) {
  obs::Histogram h;
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  h.observe(4);
  EXPECT_EQ(h.count(), 5U);
  EXPECT_EQ(h.sum(), 10U);
  EXPECT_EQ(h.max(), 4U);
  EXPECT_EQ(h.bucket(0), 1U);  // the zero
  EXPECT_EQ(h.bucket(1), 1U);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2U);  // [2, 4)
  EXPECT_EQ(h.bucket(3), 1U);  // [4, 8)
}

}  // namespace
}  // namespace aspmt
