#include "obs/exporters.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>

namespace aspmt::obs {
namespace {

/// Event timestamps are ns; trace_event and the NDJSON log use microseconds.
double to_us(std::uint64_t t_ns) {
  return static_cast<double>(t_ns) / 1000.0;
}

std::string fmt_us(std::uint64_t t_ns) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", to_us(t_ns));
  return buf;
}

/// Compact human count: 1234 -> "1.2k", 5600000 -> "5.6M".
std::string fmt_si(std::uint64_t v) {
  char buf[32];
  if (v >= 1000000000ULL) {
    std::snprintf(buf, sizeof buf, "%.1fG", static_cast<double>(v) / 1e9);
  } else if (v >= 1000000ULL) {
    std::snprintf(buf, sizeof buf, "%.1fM", static_cast<double>(v) / 1e6);
  } else if (v >= 10000ULL) {
    std::snprintf(buf, sizeof buf, "%.1fk", static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

}  // namespace

// ---- NdjsonExporter --------------------------------------------------------

void NdjsonExporter::on_event(const Event& e) {
  out_ << "{\"t_us\":" << fmt_us(e.t_ns) << ",\"worker\":" << e.worker
       << ",\"kind\":\"" << kind_name(e.kind) << "\",\"a\":" << e.a
       << ",\"b\":" << e.b << ",\"c\":" << e.c << "}\n";
}

void NdjsonExporter::on_drop(std::uint64_t dropped) {
  out_ << "{\"kind\":\"dropped\",\"count\":" << dropped << "}\n";
}

void NdjsonExporter::flush() { out_.flush(); }

// ---- ChromeTraceExporter ---------------------------------------------------

void ChromeTraceExporter::emit(const char* ph, const char* name,
                               const Event& e, const std::string& extra) {
  if (closed_) return;
  if (first_) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    first_ = false;
  } else {
    out_ << ",\n";
  }
  out_ << "{\"ph\":\"" << ph << "\",\"name\":\"" << name
       << "\",\"pid\":0,\"tid\":" << e.worker << ",\"ts\":" << fmt_us(e.t_ns)
       << extra << "}";
}

void ChromeTraceExporter::emit_counters(std::uint64_t t_ns) {
  Event synth;
  synth.t_ns = t_ns;
  synth.worker = 0;
  std::int64_t prunings = 0;
  for (const auto& [w, v] : prunings_) prunings += v;
  std::int64_t conflicts = 0;
  for (const auto& [w, v] : conflicts_) conflicts += v;
  emit("C", "front", synth,
       ",\"args\":{\"points\":" + std::to_string(front_size_) + "}");
  emit("C", "prunings", synth,
       ",\"args\":{\"total\":" + std::to_string(prunings) + "}");
  emit("C", "conflicts", synth,
       ",\"args\":{\"total\":" + std::to_string(conflicts) + "}");
  counters_dirty_ = false;
}

void ChromeTraceExporter::on_event(const Event& e) {
  last_t_ns_ = e.t_ns;
  std::ostringstream args;
  switch (e.kind) {
    case EventKind::RunStart:
      emit("M", "process_name", e, ",\"args\":{\"name\":\"aspmt_dse\"}");
      args << ",\"s\":\"g\",\"args\":{\"wall_limit_ms\":" << e.a
           << ",\"workers\":" << e.b << ",\"conflict_budget\":" << e.c << "}";
      emit("i", "run-start", e, args.str());
      break;
    case EventKind::RunEnd:
      args << ",\"s\":\"g\",\"args\":{\"front\":" << e.a << ",\"models\":"
           << e.b << ",\"complete\":" << e.c << "}";
      emit("i", "run-end", e, args.str());
      break;
    case EventKind::WorkerStart:
      args << ",\"args\":{\"name\":\"worker-" << e.a << "\"}";
      emit("M", "thread_name", e, args.str());
      emit("i", "worker-start", e, ",\"s\":\"t\"");
      break;
    case EventKind::WorkerEnd:
      args << ",\"s\":\"t\",\"args\":{\"models\":" << e.a
           << ",\"conflicts\":" << e.b << ",\"failed\":" << e.c << "}";
      emit("i", "worker-end", e, args.str());
      break;
    case EventKind::SolveStart:
      args << ",\"args\":{\"assumptions\":" << e.a << "}";
      emit("B", "solve", e, args.str());
      break;
    case EventKind::SolveEnd: {
      static const char* kResult[] = {"sat", "unsat", "unknown"};
      const char* result =
          e.a >= 0 && e.a < 3 ? kResult[e.a] : "?";
      args << ",\"args\":{\"result\":\"" << result
           << "\",\"conflicts\":" << e.b << ",\"propagations\":" << e.c << "}";
      emit("E", "solve", e, args.str());
      break;
    }
    case EventKind::Restart:
      emit("i", "restart", e, ",\"s\":\"t\"");
      break;
    case EventKind::StatsSample:
      conflicts_[e.worker] = e.a;
      counters_dirty_ = true;
      break;
    case EventKind::ModelFound:
      args << ",\"s\":\"t\",\"args\":{\"point\":[" << e.a << "," << e.b << ","
           << e.c << "]}";
      emit("i", "model", e, args.str());
      break;
    case EventKind::ArchiveInsert:
      ++front_size_;
      counters_dirty_ = true;
      break;
    case EventKind::ArchiveEvict:
      front_size_ = e.b;  // authoritative size after the insertion
      counters_dirty_ = true;
      break;
    case EventKind::DominancePrune:
      prunings_[e.worker] = e.a;
      counters_dirty_ = true;
      break;
    case EventKind::BudgetTrip:
      args << ",\"s\":\"g\",\"args\":{\"reason\":" << e.a << "}";
      emit("i", "budget-trip", e, args.str());
      break;
    case EventKind::CheckpointWrite:
      args << ",\"s\":\"t\",\"args\":{\"points\":" << e.a << ",\"ok\":" << e.b
           << "}";
      emit("i", "checkpoint-write", e, args.str());
      break;
    case EventKind::WarmStartSeed:
      ++front_size_;
      counters_dirty_ = true;
      args << ",\"s\":\"g\",\"args\":{\"point\":[" << e.a << "," << e.b << ","
           << e.c << "]}";
      emit("i", "warmstart-seed", e, args.str());
      break;
    case EventKind::ShardSpawn:
      args << ",\"s\":\"g\",\"args\":{\"shard\":" << e.a << ",\"lo\":" << e.b
           << ",\"hi\":" << e.c << "}";
      emit("i", "shard-spawn", e, args.str());
      break;
    case EventKind::ShardExit:
      args << ",\"s\":\"g\",\"args\":{\"shard\":" << e.a << ",\"delivered\":"
           << e.b << ",\"attempt\":" << e.c << "}";
      emit("i", "shard-exit", e, args.str());
      break;
    case EventKind::ShardRequeue:
      args << ",\"s\":\"g\",\"args\":{\"shard\":" << e.a << ",\"attempt\":"
           << e.b << ",\"resumed\":" << e.c << "}";
      emit("i", "shard-requeue", e, args.str());
      break;
    case EventKind::ShardPoint:
      args << ",\"s\":\"g\",\"args\":{\"point\":[" << e.a << "," << e.b << ","
           << e.c << "]}";
      emit("i", "shard-point", e, args.str());
      break;
    case EventKind::ShardHeartbeat:
      // High-frequency liveness signal; counters, not instants, keep the
      // trace readable.
      break;
    default:
      break;
  }
}

void ChromeTraceExporter::tick() {
  // Counter tracks are flushed on the collector heartbeat, not per event —
  // a run with 10^5 prunings stays a few hundred counter samples.
  if (counters_dirty_) emit_counters(last_t_ns_);
}

void ChromeTraceExporter::on_drop(std::uint64_t dropped) {
  Event synth;
  synth.t_ns = last_t_ns_;
  emit("i", "events-dropped", synth,
       ",\"s\":\"g\",\"args\":{\"count\":" + std::to_string(dropped) + "}");
}

void ChromeTraceExporter::flush() {
  if (closed_) return;
  if (counters_dirty_) emit_counters(last_t_ns_);
  if (first_) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    first_ = false;
  }
  out_ << "\n]}\n";
  closed_ = true;
  out_.flush();
}

// ---- ProgressMeter ---------------------------------------------------------

void ProgressMeter::on_event(const Event& e) {
  if (e.t_ns > t_ns_) t_ns_ = e.t_ns;
  switch (e.kind) {
    case EventKind::RunStart:
      wall_limit_ms_ = e.a;
      break;
    case EventKind::ModelFound:
      ++models_;
      break;
    case EventKind::ArchiveInsert:
    case EventKind::WarmStartSeed:
      ++front_size_;
      break;
    case EventKind::ArchiveEvict:
      front_size_ = e.b;
      break;
    case EventKind::StatsSample:
      conflicts_[e.worker] = e.a;
      break;
    default:
      break;
  }
}

void ProgressMeter::print_line(bool final_line) {
  const double seconds = static_cast<double>(t_ns_) / 1e9;
  std::uint64_t conflicts = 0;
  for (const auto& [w, v] : conflicts_) {
    conflicts += static_cast<std::uint64_t>(v);
  }
  const double dt = seconds - last_print_seconds_;
  const double rate =
      dt > 1e-9
          ? static_cast<double>(conflicts - conflicts_at_last_print_) / dt
          : 0.0;
  char head[160];
  std::snprintf(head, sizeof head,
                "[aspmt] %7.1fs  front=%lld  models=%s  conflicts=%s (%s/s)",
                seconds, static_cast<long long>(front_size_),
                fmt_si(models_).c_str(), fmt_si(conflicts).c_str(),
                fmt_si(static_cast<std::uint64_t>(rate)).c_str());
  out_ << head;
  if (wall_limit_ms_ > 0) {
    const double limit = static_cast<double>(wall_limit_ms_) / 1000.0;
    char budget[64];
    std::snprintf(budget, sizeof budget, "  budget %.0f%% of %.0fs",
                  100.0 * seconds / limit, limit);
    out_ << budget;
  }
  out_ << (final_line ? "  [done]\n" : "\n");
  out_.flush();
  last_print_seconds_ = seconds;
  conflicts_at_last_print_ = conflicts;
  any_line_ = true;
}

void ProgressMeter::tick() {
  const double seconds = static_cast<double>(t_ns_) / 1e9;
  if (!any_line_ || seconds - last_print_seconds_ >= interval_seconds_) {
    print_line(false);
  }
}

void ProgressMeter::flush() { print_line(true); }

}  // namespace aspmt::obs
