// Archive checkpointing for long exploration runs.
//
// A checkpoint is a versioned, checksummed text snapshot of what a restart
// reads: the spec fingerprint and per-section digests that classify it, the
// learnt-clause dump, and the best-known front — the non-dominated points
// with one witness implementation per point (when collected).  Snapshots
// are written atomically (tmp file + rename) so a crash mid-write never
// leaves a torn file, and the loader verifies the FNV-1a checksum plus the
// structural invariants (sorted, mutually non-dominated, witness objectives
// matching their points) before accepting anything — a corrupted checkpoint
// degrades to a cold start, it never poisons a resumed run.
//
// Restarting from a checkpoint (reuse_checkpoint, respec.hpp — the one
// restart path) classifies it against the spec, turns its witnesses into
// seed candidates (checkpoint_seeds) and pushes them through the warm-start
// gate: each is re-validated, reduced to an antichain and injected with an
// `F` proof step before search begins, so every region the points weakly
// dominate is pruned from the first propagation on.  Seeded points are
// ordinary feasible points to the exactness argument — the final
// unconstrained Unsat still proves the archive is the exact front — and
// resumed runs certify like cold ones.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dse/respec.hpp"
#include "pareto/point.hpp"
#include "synth/implementation.hpp"
#include "synth/spec.hpp"
#include "util/timer.hpp"

#include <mutex>

namespace aspmt::dse {

struct Checkpoint {
  std::uint64_t spec_fingerprint = 0;
  /// Format v3: per-section spec digests (dse/respec.hpp) enabling
  /// incremental re-exploration to classify spec deltas; false on v1/v2
  /// files, where only the combined fingerprint is available.
  bool has_sections = false;
  SectionDigests sections;
  /// Format v3: reusable learnt-clause dump for assumption-guarded replay.
  /// Literals are signed 1-based (DIMACS convention), all within
  /// [1, clause_base_vars].  Empty when no dump was taken.
  std::uint32_t clause_base_vars = 0;
  std::vector<std::vector<std::int32_t>> clauses;
  /// Mutually non-dominated, sorted lexicographically.
  std::vector<pareto::Vec> points;
  /// Parallel to `points`; an implementation with empty option_of_task
  /// marks a missing witness.  May be empty when none were collected.
  std::vector<synth::Implementation> witnesses;
};

/// FNV-1a fingerprint of the specification's canonical text form — what a
/// v1/v2 checkpoint classifies by (classify_checkpoint, respec.hpp).
[[nodiscard]] std::uint64_t spec_fingerprint(const synth::Specification& spec);

/// Serialize to the `aspmt-ckpt 5` text format (checksum trailer included).
/// The loader accepts v5 plus legacy v4/v3/v2/v1 files; it skips the lines
/// older writers emitted and no restart reads (`seed`, `elapsed-ms`, `warm`,
/// `slices`).
[[nodiscard]] std::string to_text(const Checkpoint& ckpt);

/// Serialize one witness implementation as the payload of a checkpoint `w`
/// line (no leading "w ", no trailing newline); "-" marks a missing
/// witness.  Shared by the checkpoint format and the distributed shard
/// RESULT payload, so both sides round-trip identically.
[[nodiscard]] std::string witness_to_text(const synth::Implementation& w);

/// Parse witness_to_text output.  Returns "" on success, a diagnostic
/// otherwise; a "-" payload leaves `w` empty (missing witness).
[[nodiscard]] std::string witness_from_text(std::string_view text,
                                            synth::Implementation& w);

/// Parse and validate; returns "" on success, a diagnostic otherwise.
[[nodiscard]] std::string parse_checkpoint(std::string_view text,
                                           Checkpoint& out);

/// Durable atomic write: tmp file, fsync, rename, fsync of the parent
/// directory.  A failed fsync (or the `sync_fail` fault hook) still
/// publishes the complete file but returns a "durability degraded"
/// diagnostic for the caller to surface as a non-fatal warning; any other
/// non-empty return is a hard failure and nothing was published.
[[nodiscard]] std::string atomic_write_file(const std::string& path,
                                            std::string_view text,
                                            bool sync_fail = false);

/// Atomic write-rename.  Returns "" on success, a diagnostic otherwise.
/// `inject_corruption` is the fault hook: the payload is damaged after the
/// checksum was computed, so the loader must reject the file.  `sync_fail`
/// simulates fsync failure (see atomic_write_file).
[[nodiscard]] std::string save_checkpoint(const Checkpoint& ckpt,
                                          const std::string& path,
                                          bool inject_corruption = false,
                                          bool sync_fail = false);

/// Load + parse_checkpoint.  Returns "" on success, a diagnostic otherwise.
[[nodiscard]] std::string load_checkpoint(const std::string& path,
                                          Checkpoint& out);

/// Periodic snapshot governor shared by all workers of a run: write()
/// serializes writers and enforces the interval, so publishing workers can
/// call it opportunistically after every insert.
class CheckpointWriter {
 public:
  CheckpointWriter(std::string path, double interval_seconds,
                   bool inject_corruption = false, bool sync_fail = false)
      : path_(std::move(path)),
        interval_(interval_seconds),
        corrupt_(inject_corruption),
        sync_fail_(sync_fail) {}

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Cheap pre-check: the interval elapsed since the last write.
  [[nodiscard]] bool due() const noexcept {
    return timer_.elapsed_seconds() >= interval_;
  }

  /// Write a periodic snapshot if due (re-checked under the writer lock).
  /// Returns "" on success or when skipped, a diagnostic otherwise.
  [[nodiscard]] std::string write_if_due(const Checkpoint& ckpt);

  /// Unconditional final snapshot (end of run).
  [[nodiscard]] std::string write(const Checkpoint& ckpt);

 private:
  std::string path_;
  double interval_;
  bool corrupt_;
  bool sync_fail_ = false;
  std::mutex mutex_;
  util::Timer timer_;
};

}  // namespace aspmt::dse
