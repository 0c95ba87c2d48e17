// In-memory span recorder for the traced benchmark run.
//
// Every timed call perfbench makes into a library module is wrapped in a
// Span: name, layer (the src/ module the call enters), start, end, parent
// span and job id.  Spans stay in memory and are written once, at exit, as
// Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).  A
// layer's self time is the summed duration of its spans minus the parts
// their child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 = root
  std::int64_t job = 0;
  std::string name;
  std::string layer;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer();

  /// RAII span: opened on construction under the innermost open span,
  /// closed on destruction.  A null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::string layer, std::int64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Seconds since the span opened (valid with or without a tracer).
    [[nodiscard]] double elapsed_seconds() const;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
    std::chrono::steady_clock::time_point start_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self seconds per layer over the spans recorded since `first_span`.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer(
      std::size_t first_span) const;

  /// Chrome trace_event JSON of every recorded span ("X" complete events,
  /// with span id, parent id and job id in "args").
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices of open spans, innermost last
};

}  // namespace perfbench
