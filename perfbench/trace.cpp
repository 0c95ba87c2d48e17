#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) { spans_.reserve(4096); }

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::string layer,
                     std::int64_t job)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (tracer_ == nullptr) return;
  Span s;
  s.id = static_cast<std::int64_t>(tracer_->spans_.size());
  s.parent = tracer_->open_.empty()
                 ? -1
                 : tracer_->spans_[tracer_->open_.back()].id;
  s.job = job;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.start_ns = tracer_->now_ns();
  s.end_ns = -1;
  index_ = tracer_->spans_.size();
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = tracer_->now_ns();
  tracer_->open_.pop_back();
}

double Tracer::Scope::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
      .count();
}

std::map<std::string, double> Tracer::self_seconds_by_layer(
    std::size_t first_span) const {
  // Children of one parent never overlap (spans open on one thread), so
  // a span's self time is its duration minus its children's durations.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = first_span; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = first_span; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                  "\"parent\":%lld,\"job\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.layer.c_str(),
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.job));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
