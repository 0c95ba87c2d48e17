#include "serve/journal.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "dse/checkpoint.hpp"
#include "util/text.hpp"

namespace aspmt::serve {

namespace {

using util::parse_number;
using util::take_line;
using util::take_token;

constexpr std::string_view kHeader = "aspmt-job 1";

bool state_from_name(std::string_view name, JobState& out) {
  if (name == "queued") out = JobState::Queued;
  else if (name == "running") out = JobState::Running;
  else if (name == "completed") out = JobState::Completed;
  else if (name == "cancelled") out = JobState::Cancelled;
  else if (name == "shed") out = JobState::Shed;
  else if (name == "quarantined") out = JobState::Quarantined;
  else return false;
  return true;
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::Completed: return "completed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Shed: return "shed";
    case JobState::Quarantined: return "quarantined";
  }
  return "unknown";
}

std::string job_to_text(const JobRecord& r) {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "id " << r.id << '\n';
  out << "tenant " << r.tenant << '\n';
  out << "state " << to_string(r.state) << '\n';
  out << "priority " << r.priority << '\n';
  out << "threads " << r.threads << '\n';
  out << "attempts " << r.attempts << '\n';
  out << "limits " << r.limits.wall_seconds << ' ' << r.limits.conflicts << ' '
      << r.limits.memory_mb << '\n';
  out << "certify " << (r.certify ? 1 : 0) << '\n';
  out << "spec-bytes " << r.spec_text.size() << '\n';
  out << r.spec_text << '\n';
  if (!r.error.empty()) {
    // The error line is single-line by format; flatten any embedded LF.
    std::string flat = r.error;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out << "error " << flat << '\n';
  }
  if (is_terminal(r.state)) {
    out << "result " << (r.complete ? 1 : 0) << ' ' << (r.certified ? 1 : 0)
        << ' ' << r.seconds << '\n';
    for (const pareto::Vec& p : r.front) {
      out << 'p';
      for (const std::int64_t v : p) out << ' ' << v;
      out << '\n';
    }
  }
  std::string text = out.str();
  text += "end " + std::to_string(util::fnv1a(text)) + "\n";
  return text;
}

std::string job_from_text(std::string_view text, JobRecord& out) {
  // Checksum first, like the checkpoint loader: nothing inside a torn file
  // is trusted, not even the header.
  const std::size_t end_pos = text.rfind("end ");
  if (end_pos == std::string_view::npos ||
      (end_pos != 0 && text[end_pos - 1] != '\n')) {
    return "job: missing checksum trailer";
  }
  std::string_view trailer = text.substr(end_pos + 4);
  if (!trailer.empty() && trailer.back() == '\n') trailer.remove_suffix(1);
  std::uint64_t expected = 0;
  if (!parse_number(trailer, expected)) return "job: malformed checksum";
  if (util::fnv1a(text.substr(0, end_pos)) != expected) {
    return "job: checksum mismatch";
  }
  std::string_view body = text.substr(0, end_pos);

  if (take_line(body) != kHeader) return "job: bad header";
  out = JobRecord{};
  bool saw_spec = false;
  while (!body.empty()) {
    std::string_view line = take_line(body);
    if (line.empty()) continue;
    std::string_view rest = line;
    const std::string_view key = take_token(rest);
    if (key == "id") {
      out.id = std::string(rest);
    } else if (key == "tenant") {
      out.tenant = std::string(rest);
    } else if (key == "state") {
      if (!state_from_name(rest, out.state)) return "job: unknown state";
    } else if (key == "priority") {
      if (!parse_number(rest, out.priority)) return "job: bad priority";
    } else if (key == "threads") {
      std::uint64_t v = 0;
      if (!parse_number(rest, v)) return "job: bad threads";
      out.threads = static_cast<std::size_t>(v);
    } else if (key == "attempts") {
      std::uint64_t v = 0;
      if (!parse_number(rest, v)) return "job: bad attempts";
      out.attempts = static_cast<std::size_t>(v);
    } else if (key == "limits") {
      std::uint64_t conflicts = 0, mem = 0;
      if (!parse_number(take_token(rest), out.limits.wall_seconds) ||
          !parse_number(take_token(rest), conflicts) ||
          !parse_number(take_token(rest), mem)) {
        return "job: bad limits";
      }
      out.limits.conflicts = conflicts;
      out.limits.memory_mb = static_cast<std::size_t>(mem);
    } else if (key == "certify") {
      out.certify = rest == "1";
    } else if (key == "spec-bytes") {
      std::uint64_t n = 0;
      if (!parse_number(rest, n)) return "job: bad spec-bytes";
      if (body.size() < n + 1 || body[n] != '\n') {
        return "job: truncated spec payload";
      }
      out.spec_text = std::string(body.substr(0, n));
      body = body.substr(n + 1);
      saw_spec = true;
    } else if (key == "error") {
      out.error = std::string(rest);
    } else if (key == "result") {
      std::string_view c = take_token(rest);
      std::string_view cert = take_token(rest);
      out.complete = c == "1";
      out.certified = cert == "1";
      if (!parse_number(take_token(rest), out.seconds)) {
        return "job: bad result line";
      }
    } else if (key == "p") {
      pareto::Vec p;
      while (!rest.empty()) {
        std::int64_t v = 0;
        if (!parse_number(take_token(rest), v)) return "job: bad point line";
        p.push_back(v);
      }
      if (p.empty()) return "job: bad point line";
      out.front.push_back(std::move(p));
    } else {
      return "job: unknown line kind '" + std::string(key) + "'";
    }
  }
  if (out.id.empty()) return "job: missing id";
  if (!saw_spec) return "job: missing spec";
  if (!out.front.empty() && !is_terminal(out.state)) {
    return "job: front recorded for a non-terminal state";
  }
  return "";
}

std::string JobJournal::job_path(const std::string& id) const {
  return dir_ + "/" + id + ".job";
}

std::string JobJournal::checkpoint_path(const std::string& id) const {
  return dir_ + "/" + id + ".ckpt";
}

std::string JobJournal::save(const JobRecord& record, bool sync_fail) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  return dse::atomic_write_file(job_path(record.id), job_to_text(record),
                                sync_fail);
}

std::vector<JobRecord> JobJournal::load_all(
    std::vector<std::string>* diagnostics) const {
  std::vector<JobRecord> records;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return records;
  for (const auto& entry : it) {
    if (!entry.is_regular_file() || entry.path().extension() != ".job") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    JobRecord record;
    const std::string err = job_from_text(buffer.str(), record);
    if (!err.empty()) {
      if (diagnostics != nullptr) {
        diagnostics->push_back(entry.path().filename().string() + ": " + err);
      }
      continue;
    }
    records.push_back(std::move(record));
  }
  // Deterministic recovery order regardless of directory enumeration.
  std::sort(records.begin(), records.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.id < b.id; });
  return records;
}

void JobJournal::remove(const std::string& id) const {
  std::error_code ec;
  std::filesystem::remove(job_path(id), ec);
  std::filesystem::remove(checkpoint_path(id), ec);
}

}  // namespace aspmt::serve
