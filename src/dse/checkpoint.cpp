#include "dse/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "synth/specio.hpp"
#include "util/text.hpp"

namespace aspmt::dse {
namespace {

// Version 2 adds the `warm` line, version 3 the per-section spec digests
// (`sections`) and the reusable learnt-clause dump (`clauses` + `c` lines)
// for incremental re-exploration, version 4 the `slices` line.  Version 5
// appends a fifth section digest — the objective-tree digest (scenarios +
// combinator axes) — and gates the witness-objectives-equal-point invariant
// on it: with a non-default tree the points are tree-valued while witnesses
// record the base triple.  Older files are still accepted and load with the
// new fields defaulted; a newer-version line inside an older file is
// rejected as an unknown line kind, exactly like any other foreign line.
// The writer no longer emits `seed`, `elapsed-ms`, `warm` or `slices`: no
// restart reads them, so the parser skips them where their version allows.
constexpr std::string_view kHeaderV1 = "aspmt-ckpt 1";
constexpr std::string_view kHeaderV2 = "aspmt-ckpt 2";
constexpr std::string_view kHeaderV3 = "aspmt-ckpt 3";
constexpr std::string_view kHeaderV4 = "aspmt-ckpt 4";
constexpr std::string_view kHeader = "aspmt-ckpt 5";

/// Whitespace-separated integer scanner over one line.
class Scanner {
 public:
  explicit Scanner(std::string_view line) : line_(line) {}

  bool word(std::string_view& out) {
    skip();
    if (pos_ >= line_.size()) return false;
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') ++pos_;
    out = line_.substr(start, pos_ - start);
    return true;
  }

  template <typename T>
  bool integer(T& out) {
    std::string_view tok;
    if (!word(tok)) return false;
    const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return res.ec == std::errc{} && res.ptr == tok.data() + tok.size();
  }

  bool done() {
    skip();
    return pos_ >= line_.size();
  }

 private:
  void skip() {
    while (pos_ < line_.size() && line_[pos_] == ' ') ++pos_;
  }
  std::string_view line_;
  std::size_t pos_ = 0;
};

void append_witness(std::ostringstream& out, const synth::Implementation& w) {
  out << "w " << witness_to_text(w) << '\n';
}

std::string parse_witness(Scanner& sc, synth::Implementation& w) {
  std::string_view first;
  if (!sc.word(first)) return "truncated witness line";
  if (first == "-") return "";  // missing witness
  std::size_t tasks = 0;
  {
    const auto res =
        std::from_chars(first.data(), first.data() + first.size(), tasks);
    if (res.ec != std::errc{} || res.ptr != first.data() + first.size() ||
        tasks == 0) {
      return "malformed witness task count";
    }
  }
  w.option_of_task.resize(tasks);
  w.binding.resize(tasks);
  w.start.resize(tasks);
  for (auto& v : w.option_of_task) {
    if (!sc.integer(v)) return "malformed witness options";
  }
  for (auto& v : w.binding) {
    if (!sc.integer(v)) return "malformed witness binding";
  }
  for (auto& v : w.start) {
    if (!sc.integer(v)) return "malformed witness schedule";
  }
  std::size_t routes = 0;
  if (!sc.integer(routes)) return "malformed witness route count";
  w.route.resize(routes);
  for (auto& route : w.route) {
    std::size_t len = 0;
    if (!sc.integer(len)) return "malformed witness route";
    route.resize(len);
    for (auto& l : route) {
      if (!sc.integer(l)) return "malformed witness route";
    }
  }
  if (!sc.integer(w.latency) || !sc.integer(w.energy) || !sc.integer(w.cost) ||
      !sc.done()) {
    return "malformed witness objectives";
  }
  return "";
}

}  // namespace

std::string witness_to_text(const synth::Implementation& w) {
  if (w.option_of_task.empty()) return "-";  // missing-witness sentinel
  std::ostringstream out;
  out << w.option_of_task.size();
  for (const std::size_t o : w.option_of_task) out << ' ' << o;
  for (const synth::ResourceId r : w.binding) out << ' ' << r;
  for (const std::int64_t s : w.start) out << ' ' << s;
  out << ' ' << w.route.size();
  for (const auto& route : w.route) {
    out << ' ' << route.size();
    for (const synth::LinkId l : route) out << ' ' << l;
  }
  out << ' ' << w.latency << ' ' << w.energy << ' ' << w.cost;
  return out.str();
}

std::string witness_from_text(std::string_view text,
                              synth::Implementation& w) {
  w = synth::Implementation{};
  Scanner sc(text);
  return parse_witness(sc, w);
}

std::uint64_t spec_fingerprint(const synth::Specification& spec) {
  return util::fnv1a(synth::to_text(spec));
}

std::string to_text(const Checkpoint& ckpt) {
  std::ostringstream out;
  out << kHeader << '\n';
  out << "spec " << ckpt.spec_fingerprint << '\n';
  if (ckpt.has_sections) {
    out << "sections " << ckpt.sections.tasks << ' ' << ckpt.sections.resources
        << ' ' << ckpt.sections.mappings << ' ' << ckpt.sections.objectives
        << ' ' << ckpt.sections.tree << '\n';
  }
  if (!ckpt.clauses.empty()) {
    out << "clauses " << ckpt.clauses.size() << ' ' << ckpt.clause_base_vars
        << '\n';
    for (const auto& clause : ckpt.clauses) {
      out << "c " << clause.size();
      for (const std::int32_t l : clause) out << ' ' << l;
      out << '\n';
    }
  }
  out << "points " << ckpt.points.size() << '\n';
  for (const pareto::Vec& p : ckpt.points) {
    out << "p " << p.size();
    for (const std::int64_t v : p) out << ' ' << v;
    out << '\n';
  }
  if (!ckpt.witnesses.empty()) {
    for (const synth::Implementation& w : ckpt.witnesses) {
      append_witness(out, w);
    }
  }
  std::string payload = out.str();
  payload += "end ";
  payload += std::to_string(util::fnv1a(std::string_view(payload)));
  payload += '\n';
  return payload;
}

std::string parse_checkpoint(std::string_view text, Checkpoint& out) {
  out = Checkpoint{};
  // Split off and verify the checksum trailer first: any bit flip anywhere
  // above it is caught before structural parsing begins.
  const std::size_t end_pos = text.rfind("end ");
  if (end_pos == std::string_view::npos ||
      (end_pos != 0 && text[end_pos - 1] != '\n')) {
    return "checkpoint: missing checksum trailer";
  }
  {
    Scanner sc(text.substr(end_pos + 4,
                           text.find('\n', end_pos) == std::string_view::npos
                               ? std::string_view::npos
                               : text.find('\n', end_pos) - end_pos - 4));
    std::uint64_t stated = 0;
    if (!sc.integer(stated) || !sc.done()) {
      return "checkpoint: malformed checksum";
    }
    const std::uint64_t actual = util::fnv1a(text.substr(0, end_pos + 4));
    if (stated != actual) return "checkpoint: checksum mismatch";
  }
  std::string_view body = text.substr(0, end_pos);

  std::size_t line_no = 0;
  std::size_t declared_points = 0;
  std::size_t declared_clauses = 0;
  bool saw_header = false;
  bool counts_seen = false;
  bool clause_header_seen = false;
  int version = 0;
  while (!body.empty()) {
    const std::size_t nl = body.find('\n');
    std::string_view line = body.substr(0, nl);
    body = nl == std::string_view::npos ? std::string_view{}
                                        : body.substr(nl + 1);
    ++line_no;
    if (line.empty()) continue;
    if (!saw_header) {
      if (line == kHeader) {
        version = 5;
      } else if (line == kHeaderV4) {
        version = 4;
      } else if (line == kHeaderV3) {
        version = 3;
      } else if (line == kHeaderV2) {
        version = 2;
      } else if (line == kHeaderV1) {
        version = 1;
      } else {
        return "checkpoint: bad header";
      }
      saw_header = true;
      continue;
    }
    Scanner sc(line);
    std::string_view kind;
    if (!sc.word(kind)) continue;
    if (kind == "spec") {
      if (!sc.integer(out.spec_fingerprint) || !sc.done()) {
        return "checkpoint: malformed spec fingerprint";
      }
    } else if (kind == "seed" || kind == "elapsed-ms" ||
               (kind == "warm" && version >= 2) ||
               (kind == "slices" && version >= 4)) {
      // Retired lines (the writing run's seed, wall time, warm-start flag
      // and slice partition): no restart reads them, so their contents are
      // ignored.
    } else if (kind == "sections" && version >= 3) {
      if (!sc.integer(out.sections.tasks) ||
          !sc.integer(out.sections.resources) ||
          !sc.integer(out.sections.mappings) ||
          !sc.integer(out.sections.objectives)) {
        return "checkpoint: malformed section digests";
      }
      if (version >= 5) {
        if (!sc.integer(out.sections.tree) || !sc.done()) {
          return "checkpoint: malformed section digests";
        }
      } else {
        // Pre-v5 files predate declared objective trees: default axes.
        if (!sc.done()) return "checkpoint: malformed section digests";
        out.sections.tree = default_tree_digest();
      }
      out.has_sections = true;
    } else if (kind == "clauses" && version >= 3) {
      if (!sc.integer(declared_clauses) ||
          !sc.integer(out.clause_base_vars) || !sc.done() ||
          out.clause_base_vars == 0) {
        return "checkpoint: malformed clause dump header";
      }
      clause_header_seen = true;
    } else if (kind == "c" && version >= 3) {
      if (!clause_header_seen) {
        return "checkpoint: clause before clause dump header";
      }
      std::size_t len = 0;
      if (!sc.integer(len) || len == 0 || len > 1024) {
        return "checkpoint: malformed clause";
      }
      std::vector<std::int32_t> clause(len);
      for (auto& l : clause) {
        if (!sc.integer(l) || l == 0 ||
            static_cast<std::uint64_t>(l < 0 ? -static_cast<std::int64_t>(l)
                                             : l) > out.clause_base_vars) {
          return "checkpoint: clause literal out of range";
        }
      }
      if (!sc.done()) return "checkpoint: malformed clause";
      out.clauses.push_back(std::move(clause));
    } else if (kind == "points") {
      if (!sc.integer(declared_points) || !sc.done()) {
        return "checkpoint: malformed point count";
      }
      counts_seen = true;
    } else if (kind == "p") {
      std::size_t dims = 0;
      if (!sc.integer(dims) || dims == 0 || dims > 16) {
        return "checkpoint: malformed point";
      }
      pareto::Vec p(dims);
      for (auto& v : p) {
        if (!sc.integer(v)) return "checkpoint: malformed point";
      }
      if (!sc.done()) return "checkpoint: malformed point";
      out.points.push_back(std::move(p));
    } else if (kind == "w") {
      synth::Implementation w;
      const std::string err = parse_witness(sc, w);
      if (!err.empty()) return "checkpoint: " + err;
      out.witnesses.push_back(std::move(w));
    } else {
      return "checkpoint: unknown line kind '" + std::string(kind) + "'";
    }
  }
  if (!saw_header) return "checkpoint: empty file";
  if (!counts_seen || out.points.size() != declared_points) {
    return "checkpoint: point count mismatch";
  }
  if (out.clauses.size() != declared_clauses) {
    return "checkpoint: clause count mismatch";
  }
  if (!out.witnesses.empty() && out.witnesses.size() != out.points.size()) {
    return "checkpoint: witness count mismatch";
  }
  // Structural invariants: sorted lexicographically, uniform dimension,
  // mutually non-dominated, witness objectives matching their points.
  for (std::size_t i = 0; i < out.points.size(); ++i) {
    if (out.points[i].size() != out.points.front().size()) {
      return "checkpoint: inconsistent point dimensions";
    }
    if (i > 0 && !(out.points[i - 1] < out.points[i])) {
      return "checkpoint: points not sorted";
    }
    for (std::size_t j = 0; j < out.points.size(); ++j) {
      if (i != j && pareto::weakly_dominates(out.points[j], out.points[i])) {
        return "checkpoint: points not mutually non-dominated";
      }
    }
    if (!out.witnesses.empty() && !out.witnesses[i].option_of_task.empty()) {
      const synth::Implementation& w = out.witnesses[i];
      if (w.binding.size() != w.option_of_task.size() ||
          w.start.size() != w.option_of_task.size()) {
        return "checkpoint: witness shape mismatch";
      }
      // Witnesses record the base (latency, energy, cost) triple.  Only
      // under the default objective tree is that also the Pareto point; with
      // declared combinator axes the spec-aware restart (checkpoint_seeds
      // and the warm gate) re-validates via synth::recompute_objectives
      // instead.
      const bool default_tree =
          !out.has_sections || out.sections.tree == default_tree_digest();
      if (default_tree && w.objectives() != out.points[i]) {
        return "checkpoint: witness objectives do not match point";
      }
    }
  }
  return "";
}

std::string atomic_write_file(const std::string& path, std::string_view text,
                              bool sync_fail) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return "durable write: cannot open '" + tmp + "' for writing";
  std::size_t written = 0;
  while (written < text.size()) {
    const ::ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      std::remove(tmp.c_str());
      return "durable write: write to '" + tmp + "' failed";
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: a crash after the rename must never expose a file
  // whose checksum was computed over bytes that never reached the disk.
  // A failed fsync degrades durability but not atomicity — the rename still
  // publishes a complete, checksummed file — so we finish the write and
  // report the degradation for the caller to surface.
  bool durable = true;
  if (sync_fail || ::fsync(fd) != 0) durable = false;
  if (::close(fd) != 0) {
    std::remove(tmp.c_str());
    return "durable write: close of '" + tmp + "' failed";
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return "durable write: rename to '" + path + "' failed";
  }
  // fsync the parent directory so the rename itself survives a crash.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                                                     : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    if (sync_fail || ::fsync(dfd) != 0) durable = false;
    ::close(dfd);
  } else {
    durable = false;
  }
  if (!durable) {
    return "durable write: fsync of '" + path +
           "' failed (durability degraded)";
  }
  return "";
}

std::string save_checkpoint(const Checkpoint& ckpt, const std::string& path,
                            bool inject_corruption, bool sync_fail) {
  std::string text = to_text(ckpt);
  if (inject_corruption && text.size() > 20) {
    text[text.size() / 2] ^= 0x20;  // damage the payload post-checksum
  }
  const std::string err = atomic_write_file(path, text, sync_fail);
  if (!err.empty() && err.find("durability degraded") != std::string::npos) {
    return "checkpoint: fsync of '" + path + "' failed (durability degraded)";
  }
  if (!err.empty()) return "checkpoint: " + err;
  return "";
}

std::string load_checkpoint(const std::string& path, Checkpoint& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "checkpoint: cannot read '" + path + "'";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_checkpoint(buffer.str(), out);
}

std::string CheckpointWriter::write_if_due(const Checkpoint& ckpt) {
  if (!due()) return "";
  std::unique_lock lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock() || !due()) return "";  // another worker is writing
  const std::string err = save_checkpoint(ckpt, path_, corrupt_, sync_fail_);
  timer_.restart();
  return err;
}

std::string CheckpointWriter::write(const Checkpoint& ckpt) {
  const std::lock_guard lock(mutex_);
  const std::string err = save_checkpoint(ckpt, path_, corrupt_, sync_fail_);
  timer_.restart();
  return err;
}

}  // namespace aspmt::dse
