// Stock EventSink implementations: NDJSON event log, Chrome trace_event
// JSON (loadable in Perfetto / about:tracing), and a human progress line.
//
// All exporters write to a caller-owned std::ostream and are driven
// exclusively from the collector thread (see sink.hpp for the contract).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/sink.hpp"

namespace aspmt::obs {

/// One JSON object per line:
/// {"t_us":1234.5,"worker":0,"kind":"model-found","a":7,"b":3,"c":9}
/// plus a final {"kind":"dropped","count":N} line when rings overflowed.
class NdjsonExporter final : public EventSink {
 public:
  explicit NdjsonExporter(std::ostream& out) : out_(out) {}

  void on_event(const Event& event) override;
  void on_drop(std::uint64_t dropped) override;
  void flush() override;

 private:
  std::ostream& out_;
};

/// Chrome trace_event JSON: solve() calls become duration (B/E) pairs per
/// worker track, models/restarts/checkpoints become instants, and front size /
/// conflicts / prunings become counter tracks.  Load the file via
/// ui.perfetto.dev → "Open trace file" or chrome://tracing.
class ChromeTraceExporter final : public EventSink {
 public:
  explicit ChromeTraceExporter(std::ostream& out) : out_(out) {}

  void on_event(const Event& event) override;
  void tick() override;
  void on_drop(std::uint64_t dropped) override;
  void flush() override;

 private:
  /// Emit one trace-event object; `extra` is appended raw after the common
  /// fields (e.g. ",\"args\":{...}").
  void emit(const char* ph, const char* name, const Event& event,
            const std::string& extra = {});
  void emit_counters(std::uint64_t t_ns);

  std::ostream& out_;
  bool first_ = true;
  bool closed_ = false;
  std::int64_t front_size_ = 0;
  std::map<std::uint16_t, std::int64_t> prunings_;   // per-worker totals
  std::map<std::uint16_t, std::int64_t> conflicts_;  // per-worker totals
  std::uint64_t last_t_ns_ = 0;
  bool counters_dirty_ = false;
};

/// Periodic one-line status report (front size, models, conflict rate, ETA
/// against the wall budget) — the CLI's --progress sink, pointed at stderr.
class ProgressMeter final : public EventSink {
 public:
  explicit ProgressMeter(std::ostream& out, double interval_seconds = 1.0)
      : out_(out), interval_seconds_(interval_seconds) {}

  void on_event(const Event& event) override;
  void tick() override;
  void flush() override;

 private:
  void print_line(bool final_line);

  std::ostream& out_;
  double interval_seconds_;
  std::uint64_t t_ns_ = 0;          ///< latest event timestamp seen
  std::int64_t wall_limit_ms_ = 0;  ///< from RunStart; 0 = unlimited
  std::int64_t front_size_ = 0;
  std::uint64_t models_ = 0;
  std::map<std::uint16_t, std::int64_t> conflicts_;  // per-worker totals
  double last_print_seconds_ = 0.0;
  std::uint64_t conflicts_at_last_print_ = 0;
  bool any_line_ = false;
};

}  // namespace aspmt::obs
