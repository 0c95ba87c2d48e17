#include "serve/server.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "synth/specio.hpp"

namespace aspmt::serve {

namespace {

/// Recover the numeric suffix of a "j-<n>" id; 0 when foreign.
std::uint64_t seq_of_id(const std::string& id) {
  if (id.size() < 3 || id.compare(0, 2, "j-") != 0) return 0;
  std::uint64_t n = 0;
  const char* begin = id.data() + 2;
  const char* end = id.data() + id.size();
  const auto res = std::from_chars(begin, end, n);
  return res.ec == std::errc{} && res.ptr == end ? n : 0;
}

}  // namespace

/// Routes the exploration run's obs events to the job's stream
/// subscribers.  Lives as long as the job; callbacks arrive on the run's
/// collector thread (serialized per run by contract).
class Server::JobSinkAdapter final : public obs::EventSink {
 public:
  JobSinkAdapter(Server* server, std::string job_id)
      : server_(server), job_id_(std::move(job_id)) {}

  void on_event(const obs::Event& e) override {
    JobEvent ev;
    ev.job_id = job_id_;
    switch (e.kind) {
      case obs::EventKind::ArchiveInsert:
        ev.kind = JobEvent::Kind::FrontDelta;
        ev.payload = {e.a, e.b, e.c};
        break;
      case obs::EventKind::StatsSample:
        ev.kind = JobEvent::Kind::Progress;
        ev.payload = {e.a, e.b, e.c};
        break;
      case obs::EventKind::CheckpointWrite:
        ev.kind = JobEvent::Kind::Checkpoint;
        ev.payload = {e.a, e.b};
        break;
      default:
        return;  // solver-cadence events stay daemon-internal
    }
    server_->publish_by_id(job_id_, ev);
  }

 private:
  Server* server_;
  std::string job_id_;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      journal_(options_.journal_dir),
      supervisor_(options_.retry, options_.seed) {}

Server::~Server() { drain(); }

std::vector<std::string> Server::start() {
  std::vector<std::string> diagnostics;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return diagnostics;
  journaling_ = !options_.journal_dir.empty();
  sync_fail_ = dse::FaultPlan::from_env().sync_fail;
  if (journaling_) {
    std::uint64_t max_seq = 0;
    for (JobRecord& record : journal_.load_all(&diagnostics)) {
      auto job = std::make_shared<Job>();
      job->seq = seq_of_id(record.id);
      max_seq = std::max(max_seq, job->seq);
      // Re-admit interrupted work: a job the dead daemon had running (or
      // queued) goes back to the queue; its exploration checkpoint, if any,
      // makes the re-run a resume rather than a restart.  Terminal jobs
      // stay queryable with their recorded fronts.
      if (!is_terminal(record.state)) {
        record.state = JobState::Queued;
        ++counters_.admitted;
      } else {
        switch (record.state) {
          case JobState::Completed: ++counters_.completed; break;
          case JobState::Cancelled: ++counters_.cancelled; break;
          case JobState::Shed: ++counters_.shed; break;
          case JobState::Quarantined: ++counters_.quarantined; break;
          default: break;
        }
      }
      // Rebuild the request from the journaled record so recovered jobs
      // run through the same path as fresh ones (no before_attempt hook,
      // no subscribers — those die with their connections).
      job->request.tenant = record.tenant;
      job->request.spec_text = record.spec_text;
      job->request.priority = record.priority;
      job->request.threads = record.threads;
      job->request.limits = record.limits;
      job->request.certify = record.certify;
      job->record = std::move(record);
      if (job->record.state == JobState::Queued) journal_locked(*job);
      jobs_[job->record.id] = std::move(job);
    }
    next_seq_ = max_seq + 1;
  }
  started_ = true;
  const std::size_t workers = std::max<std::size_t>(1, options_.workers);
  pool_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    pool_.emplace_back([this, i] { worker_loop(i); });
  }
  update_gauges_locked();
  return diagnostics;
}

SubmitOutcome Server::submit(JobRequest request) {
  SubmitOutcome out;
  // Validate outside the lock — a malformed or unsound spec must never cost
  // the pool.
  try {
    synth::parse_specification(request.spec_text).require_valid();
  } catch (const std::exception& e) {
    out.reject_reason = "invalid-spec";
    out.detail = e.what();
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.rejected;
    return out;
  }
  if (request.limits.wall_seconds <= 0.0) {
    request.limits.wall_seconds = options_.default_time_limit_seconds;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (draining_ || !started_) {
      out.reject_reason = "draining";
      out.detail = started_ ? "daemon is draining" : "daemon is not started";
      ++counters_.rejected;
      return out;
    }
    if (queued_count_locked() >= options_.max_queue_depth) {
      out.reject_reason = "overload";
      out.detail = "queue full";
      ++counters_.rejected;
      return out;
    }
    if (tenant_live_locked(request.tenant) >= options_.tenant_quota) {
      out.reject_reason = "overload";
      out.detail = "tenant quota exceeded";
      ++counters_.rejected;
      return out;
    }

    auto job = std::make_shared<Job>();
    job->seq = next_seq_++;
    job->record.id = "j-" + std::to_string(job->seq);
    job->record.tenant = request.tenant;
    job->record.state = JobState::Queued;
    job->record.priority = request.priority;
    job->record.threads = std::clamp<std::size_t>(
        request.threads, 1, std::max<std::size_t>(1, options_.max_job_threads));
    job->record.limits = request.limits;
    job->record.certify = request.certify;
    job->record.spec_text = request.spec_text;
    job->request = std::move(request);
    out.accepted = true;
    out.job_id = job->record.id;
    ++counters_.admitted;
    jobs_[job->record.id] = job;
    journal_locked(*job);
    emit(obs::EventKind::JobAdmit, static_cast<std::int64_t>(job->seq),
         static_cast<std::int64_t>(queued_count_locked()),
         job->record.priority);
    shed_overloaded_locked();
    update_gauges_locked();
    work_cv_.notify_one();
  }
  flush_events();
  return out;
}

bool Server::cancel(const std::string& job_id) {
  std::shared_ptr<dse::Session> session;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    job.cancel_requested = true;
    session = job.session;
    if (job.record.state == JobState::Queued) {
      job.record.error = "cancelled by client";
      finish_job_locked(job, JobState::Cancelled);
      update_gauges_locked();
    }
    // Running jobs: the budget trip below unwinds the attempt and the
    // worker finalizes to Cancelled.  Terminal jobs: idempotent success.
  }
  if (session != nullptr) session->cancel();
  flush_events();
  return true;
}

Server::StatusResult Server::status(const std::string& job_id) const {
  StatusResult out;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return out;
  out.known = true;
  out.record = it->second->record;
  return out;
}

Server::StatusResult Server::wait(const std::string& job_id,
                                  double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto terminal = [&]() {
    const auto it = jobs_.find(job_id);
    return it == jobs_.end() || is_terminal(it->second->record.state);
  };
  if (timeout_seconds > 0.0) {
    done_cv_.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::duration<double>(timeout_seconds)),
        terminal);
  } else {
    done_cv_.wait(lock, terminal);
  }
  StatusResult out;
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return out;
  out.known = true;
  out.record = it->second->record;
  return out;
}

bool Server::subscribe(const std::string& job_id,
                       std::function<void(const JobEvent&)> callback) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return false;
    Job& job = *it->second;
    if (is_terminal(job.record.state)) {
      JobEvent ev;
      ev.kind = JobEvent::Kind::Done;
      ev.job_id = job_id;
      ev.state = job.record.state;
      pending_events_.push_back({{std::move(callback)}, std::move(ev)});
    } else {
      job.subscribers.push_back(std::move(callback));
    }
  }
  flush_events();
  return true;
}

ServerStats Server::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServerStats s = counters_;
  s.queued = queued_count_locked();
  s.running = running_;
  s.draining = draining_;
  return s;
}

void Server::drain() {
  std::vector<std::shared_ptr<dse::Session>> to_interrupt;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!started_ || drained_) {
      drained_ = true;
      return;
    }
    draining_ = true;
    work_cv_.notify_all();
    // Grace window: let running jobs finish on their own steam.
    const double grace = std::max(0.0, options_.drain_grace_seconds);
    done_cv_.wait_for(lock,
                      std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::duration<double>(grace)),
                      [this] { return running_ == 0; });
    if (running_ > 0) {
      for (const auto& [id, job] : jobs_) {
        if (job->record.state == JobState::Running && job->session != nullptr) {
          to_interrupt.push_back(job->session);
        }
      }
    }
  }
  // Interrupt (not cancel): the attempt checkpoints and re-journals as
  // queued, so the next daemon resumes it.
  for (const auto& session : to_interrupt) session->interrupt();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
  flush_events();
  if (options_.sink != nullptr) {
    const std::lock_guard<std::mutex> lock(sink_mutex_);
    options_.sink->flush();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  drained_ = true;
  update_gauges_locked();
}

// ---- internals -------------------------------------------------------------

std::shared_ptr<Server::Job> Server::pick_locked(double now) {
  std::shared_ptr<Job> best;
  for (const auto& [id, job] : jobs_) {
    if (job->record.state != JobState::Queued || job->ready_at > now) continue;
    if (best == nullptr || job->record.priority > best->record.priority ||
        (job->record.priority == best->record.priority &&
         job->seq < best->seq)) {
      best = job;
    }
  }
  return best;
}

void Server::worker_loop(std::size_t worker_index) {
  (void)worker_index;
  for (;;) {
    std::shared_ptr<Job> job;
    std::shared_ptr<dse::Session> session;
    std::string build_error;
    std::size_t attempt = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (draining_) return;
      job = pick_locked(epoch_.elapsed_seconds());
      if (job == nullptr) {
        work_cv_.wait_for(lock, std::chrono::milliseconds(50));
        continue;
      }
      job->record.state = JobState::Running;
      ++job->record.attempts;
      attempt = job->record.attempts;
      ++running_;
      journal_locked(*job);
      if (job->session == nullptr) {
        try {
          synth::Specification spec =
              synth::parse_specification(job->record.spec_text);
          job->adapter =
              std::make_shared<JobSinkAdapter>(this, job->record.id);
          dse::SessionOptions sopts;
          sopts.base.threads = job->record.threads;
          sopts.base.seed = options_.seed + job->seq;
          sopts.base.common.certify = job->record.certify;
          sopts.base.common.sink = job->adapter.get();
          sopts.limits = job->record.limits;
          if (journaling_) {
            sopts.checkpoint_path =
                journal_.checkpoint_path(job->record.id);
            sopts.checkpoint_interval_seconds =
                options_.checkpoint_interval_seconds;
          }
          job->session =
              std::make_shared<dse::Session>(std::move(spec), sopts);
        } catch (const std::exception& e) {
          build_error = std::string("spec rejected: ") + e.what();
        }
      }
      session = job->session;
      update_gauges_locked();
    }

    bool attempt_failed = false;
    std::string fail_msg;
    dse::ParallelExploreResult result;
    bool have_result = false;
    if (session == nullptr) {
      attempt_failed = true;
      fail_msg = build_error;
    } else {
      try {
        if (job->request.before_attempt) job->request.before_attempt(attempt);
        result = session->run();
        have_result = true;
      } catch (const std::exception& e) {
        attempt_failed = true;
        fail_msg = e.what();
      } catch (...) {
        attempt_failed = true;
        fail_msg = "unknown exception";
      }
    }
    if (!attempt_failed && have_result) {
      // Total worker wipeout without a front is an attempt failure (the
      // supervisor decides its fate); a partial front is a result.
      const dse::ExploreStats& st = result.base.stats;
      if (!st.complete && st.reason == dse::StopReason::WorkerFailure &&
          result.base.front.empty()) {
        attempt_failed = true;
        fail_msg = result.worker_errors.empty()
                       ? "all workers failed"
                       : result.worker_errors.front().message;
      }
    }

    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      if (job->cancel_requested) {
        job->record.error = "cancelled by client";
        finish_job_locked(*job, JobState::Cancelled);
      } else if (attempt_failed) {
        const dse::RetrySupervisor::Decision decision =
            supervisor_.on_failure(job->seq);
        job->record.error = fail_msg;
        if (decision.retry) {
          job->record.state = JobState::Queued;
          job->ready_at =
              epoch_.elapsed_seconds() + decision.delay_seconds;
          ++counters_.retries;
          journal_locked(*job);
          emit(obs::EventKind::JobRequeue,
               static_cast<std::int64_t>(job->seq),
               static_cast<std::int64_t>(decision.attempt),
               static_cast<std::int64_t>(decision.delay_seconds * 1e3));
          JobEvent ev;
          ev.kind = JobEvent::Kind::Requeue;
          ev.job_id = job->record.id;
          ev.payload = {static_cast<std::int64_t>(decision.attempt),
                        static_cast<std::int64_t>(decision.delay_seconds *
                                                  1e3)};
          publish_locked(*job, std::move(ev));
          work_cv_.notify_all();
        } else {
          emit(obs::EventKind::JobQuarantine,
               static_cast<std::int64_t>(job->seq),
               static_cast<std::int64_t>(job->record.attempts), 0);
          finish_job_locked(*job, JobState::Quarantined);
        }
      } else if (have_result && draining_ && !result.base.stats.complete &&
                 result.base.stats.reason == dse::StopReason::Interrupted) {
        // Drain interrupted the attempt: the final checkpoint is on disk,
        // re-journal as queued so the next daemon resumes it.
        job->record.state = JobState::Queued;
        journal_locked(*job);
      } else if (have_result) {
        job->record.complete = result.base.stats.complete;
        job->record.certified = result.base.certified;
        job->record.seconds = result.base.stats.seconds;
        job->record.front = result.base.front;
        job->record.error =
            result.base.errors.empty() ? "" : result.base.errors.front();
        finish_job_locked(*job, JobState::Completed);
      }
      done_cv_.notify_all();
      update_gauges_locked();
    }
    flush_events();
  }
}

void Server::shed_overloaded_locked() {
  const auto shed_one = [this](bool rss_trigger) {
    // Victim: newest (max seq) among the lowest-priority queued jobs.
    std::shared_ptr<Job> victim;
    for (const auto& [id, job] : jobs_) {
      if (job->record.state != JobState::Queued) continue;
      if (victim == nullptr ||
          job->record.priority < victim->record.priority ||
          (job->record.priority == victim->record.priority &&
           job->seq > victim->seq)) {
        victim = job;
      }
    }
    if (victim == nullptr) return false;
    victim->record.error = rss_trigger
                               ? "load shed: rss watermark crossed"
                               : "load shed: queue watermark crossed";
    emit(obs::EventKind::JobShed, static_cast<std::int64_t>(victim->seq),
         static_cast<std::int64_t>(queued_count_locked()),
         rss_trigger ? 1 : 0);
    finish_job_locked(*victim, JobState::Shed);
    return true;
  };
  while (queued_count_locked() > options_.shed_watermark) {
    if (!shed_one(false)) break;
  }
  if (options_.rss_watermark_mb > 0) {
    const long rss = dse::peak_rss_mb();
    if (rss > 0 && static_cast<std::size_t>(rss) > options_.rss_watermark_mb) {
      (void)shed_one(true);
    }
  }
}

void Server::journal_locked(Job& job) {
  if (!journaling_) return;
  const std::string err = journal_.save(job.record, sync_fail_);
  // A degraded (fsync-failed) save still published the record; any journal
  // diagnostic is recorded on the job, never fatal to the daemon.
  if (!err.empty()) job.record.error = err;
}

void Server::emit(obs::EventKind kind, std::int64_t a, std::int64_t b,
                  std::int64_t c) {
  if (options_.sink == nullptr) return;
  obs::Event ev;
  ev.t_ns = static_cast<std::uint64_t>(epoch_.elapsed_seconds() * 1e9);
  ev.kind = kind;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.worker = 0;
  const std::lock_guard<std::mutex> lock(sink_mutex_);
  options_.sink->on_event(ev);
}

void Server::publish_locked(Job& job, JobEvent event) {
  if (job.subscribers.empty()) return;
  pending_events_.push_back({job.subscribers, std::move(event)});
}

void Server::flush_events() {
  std::vector<std::pair<std::vector<std::function<void(const JobEvent&)>>,
                        JobEvent>>
      pending;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending.swap(pending_events_);
  }
  for (const auto& [subscribers, event] : pending) {
    for (const auto& callback : subscribers) callback(event);
  }
}

void Server::publish_by_id(const std::string& job_id, const JobEvent& event) {
  std::vector<std::function<void(const JobEvent&)>> subscribers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;
    subscribers = it->second->subscribers;
  }
  for (const auto& callback : subscribers) callback(event);
}

void Server::finish_job_locked(Job& job, JobState state) {
  job.record.state = state;
  switch (state) {
    case JobState::Completed: ++counters_.completed; break;
    case JobState::Cancelled: ++counters_.cancelled; break;
    case JobState::Shed: ++counters_.shed; break;
    case JobState::Quarantined: ++counters_.quarantined; break;
    default: break;
  }
  journal_locked(job);
  emit(obs::EventKind::JobDone, static_cast<std::int64_t>(job.seq),
       static_cast<std::int64_t>(state),
       static_cast<std::int64_t>(job.record.front.size()));
  JobEvent ev;
  ev.kind = JobEvent::Kind::Done;
  ev.job_id = job.record.id;
  ev.state = state;
  publish_locked(job, std::move(ev));
  job.session.reset();  // release the solver pool; record stays queryable
  done_cv_.notify_all();
}

std::size_t Server::queued_count_locked() const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->record.state == JobState::Queued) ++n;
  }
  return n;
}

std::size_t Server::tenant_live_locked(const std::string& tenant) const {
  std::size_t n = 0;
  for (const auto& [id, job] : jobs_) {
    if (job->record.tenant != tenant) continue;
    if (job->record.state == JobState::Queued ||
        job->record.state == JobState::Running) {
      ++n;
    }
  }
  return n;
}

void Server::update_gauges_locked() {
  obs::MetricsRegistry* reg = options_.metrics;
  if (reg == nullptr) return;
  reg->gauge("serve.queue_depth").set(static_cast<double>(queued_count_locked()));
  reg->gauge("serve.running").set(static_cast<double>(running_));
  reg->counter("serve.admitted").set(counters_.admitted);
  reg->counter("serve.rejected").set(counters_.rejected);
  reg->counter("serve.shed").set(counters_.shed);
  reg->counter("serve.retries").set(counters_.retries);
  reg->counter("serve.quarantined").set(counters_.quarantined);
  reg->counter("serve.completed").set(counters_.completed);
  reg->counter("serve.cancelled").set(counters_.cancelled);
}

}  // namespace aspmt::serve
