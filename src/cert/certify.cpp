#include "cert/certify.hpp"

#include <algorithm>
#include <array>

#include "synth/validator.hpp"
#include "util/text.hpp"

namespace aspmt::cert {

namespace {

using util::parse_number;
using util::take_line;
using util::take_token;

/// The next word of `rest`, split at spaces and tabs as the checker splits.
std::string_view take_word(std::string_view& rest) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  while (!rest.empty() && blank(rest.front())) rest.remove_prefix(1);
  std::size_t n = 0;
  while (n < rest.size() && !blank(rest[n])) ++n;
  const std::string_view word = rest.substr(0, n);
  rest.remove_prefix(n);
  return word;
}

/// The constraint system a proof stream claims to solve, verbatim: its
/// I/S/N/E/O lines and every bound declaration (SB/SL/NB/OB) whose
/// activation is 0.  Conditional bounds (the band bounds), replay axioms (G)
/// and all derivation steps are excluded — those legitimately differ across
/// shards of one distributed run; the system itself must not.  Lines are
/// classified by the words the checker reads, so no spacing hides a line.
std::string declaration_core(std::string_view proof) {
  std::string core;
  while (!proof.empty()) {
    const std::string_view line = take_line(proof);
    std::string_view rest = line;
    const std::string_view head = take_word(rest);
    bool keep = head == "I" || head == "S" || head == "N" || head == "E" ||
                head == "O";
    if (head == "SB" || head == "SL" || head == "NB" || head == "OB") {
      take_word(rest);  // sum, node or objective id
      take_word(rest);  // bound
      std::int64_t act = 0;
      keep = !parse_number(take_word(rest), act) || act == 0;
    }
    if (keep) {
      core.append(line);
      core.push_back('\n');
    }
  }
  return core;
}

/// Step 2's conditions on one band whose stream checked as `check`: "" when
/// they hold, else the failing one.
std::string judge_band(const ShardProof& shard, const CheckResult& check) {
  if (!check.ok) return "proof check failed: " + check.error;
  if (check.truncated) {
    return "proof is truncated; its band is not proven exhausted";
  }
  if (check.unsafe_bounds) {
    return "declares a bound under a negative activation, breaking the "
           "cross-shard model-extension argument";
  }
  bool covered = check.concluded_global_unsat;
  for (const std::array<std::int64_t, 2>& box : check.shard_boxes) {
    covered = covered || (box[0] <= shard.lo && box[1] >= shard.hi);
  }
  if (!covered) {
    return "proves neither a global Unsat nor a box covering its claimed "
           "band [" + std::to_string(shard.lo) + ", " +
           std::to_string(shard.hi) + "]";
  }
  return {};
}

}  // namespace

ShardsCheck check_shards(std::span<const ShardProof> shards,
                         std::size_t shard_objective, CheckOptions options) {
  ShardsCheck result;
  if (shards.empty()) {
    result.error = "no shard proofs to merge";
    return result;
  }
  options.shard_objective = static_cast<std::int64_t>(shard_objective);

  // Every shard's stream must verify, stay untruncated, declare no bound
  // under a negative activation, cover its claimed band with a global Unsat
  // or a proven box, and — when there is more than one band — solve
  // byte-for-byte the same constraint system as shard 0.
  std::string core;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardProof& shard = shards[i];
    CheckResult check = shard.checked.has_value()
                            ? *shard.checked
                            : check_proof(shard.proof, options);
    std::string why = judge_band(shard, check);
    if (why.empty() && shards.size() > 1) {
      std::string shard_core = declaration_core(shard.proof);
      if (i == 0) {
        core = std::move(shard_core);
      } else if (shard_core != core) {
        why = "solved a different constraint system than shard 0";
      }
    }
    result.checks.push_back(std::move(check));
    if (!why.empty()) {
      result.error = "shard " + std::to_string(i) + " " + why;
      return result;
    }
    ++result.shards_checked;
  }

  // The claimed bands must tile the whole objective line exactly — sorted,
  // gap-free, overlap-free, open at both ends.  A band ending at INT64_MAX
  // overlaps every band after it; testing that first keeps `end + 1` from
  // overflowing.
  std::vector<std::array<std::int64_t, 2>> bands;
  bands.reserve(shards.size());
  for (const ShardProof& s : shards) bands.push_back({s.lo, s.hi});
  std::sort(bands.begin(), bands.end());
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  if (bands.front()[0] != kMin) {
    result.error = "shard bands leave the objective unbounded-below end uncovered";
    return result;
  }
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const std::int64_t end = bands[i][1];
    if (bands[i][0] > end) {
      result.error = "shard band " + std::to_string(bands[i][0]) + " > " +
                     std::to_string(end) + " is empty";
      return result;
    }
    if (i + 1 == bands.size()) break;
    const std::int64_t next = bands[i + 1][0];
    if (end == kMax || next <= end) {
      result.error = "shard bands overlap";
      return result;
    }
    if (next != end + 1) {
      result.error = "shard bands leave a gap after " + std::to_string(end);
      return result;
    }
  }
  if (bands.back()[1] != kMax) {
    result.error = "shard bands leave the objective unbounded-above end uncovered";
    return result;
  }
  return result;
}

CheckOptions band_check_options(std::size_t shard_objective) {
  CheckOptions options;
  options.trust_feasible_steps = false;
  options.shard_objective = static_cast<std::int64_t>(shard_objective);
  return options;
}

CertifyResult certify(
    const synth::Specification& spec,
    std::span<const std::pair<pareto::Vec, synth::Implementation>> discoveries,
    std::span<const pareto::Vec> front, std::span<const ShardProof> shards,
    std::size_t shard_objective) {
  CertifyResult result;

  // 1. Every discovery needs an independently validated witness whose
  //    recomputed objectives equal the recorded vector; only validated
  //    points are admissible dominance sources in *any* shard's stream.
  CheckOptions copts = band_check_options(shard_objective);
  copts.feasible_points.reserve(discoveries.size());
  for (const auto& [point, impl] : discoveries) {
    const std::string why = synth::validate_implementation(spec, impl);
    if (!why.empty()) {
      result.error =
          "witness for " + pareto::to_string(point) + " invalid: " + why;
      return result;
    }
    if (synth::recompute_objectives(spec, impl) != point) {
      result.error = "witness objectives disagree with the recorded point " +
                     pareto::to_string(point);
      return result;
    }
    ++result.witnesses_validated;
    copts.feasible_points.push_back(point);
  }

  // 2. and 3. Every shard's stream checks out and the bands tile the line.
  ShardsCheck shard_check = check_shards(shards, shard_objective, std::move(copts));
  result.checks = std::move(shard_check.checks);
  result.shards_checked = shard_check.shards_checked;
  if (!shard_check.error.empty()) {
    result.error = std::move(shard_check.error);
    return result;
  }

  // 4. The reported front must be exactly the Pareto-minimal subset of the
  //    validated discoveries.
  std::vector<pareto::Vec> points;
  points.reserve(discoveries.size());
  for (const auto& [point, impl] : discoveries) points.push_back(point);
  std::vector<pareto::Vec> minimal =
      pareto::non_dominated_filter(std::move(points));
  std::vector<pareto::Vec> reported(front.begin(), front.end());
  std::sort(reported.begin(), reported.end());
  if (reported != minimal) {
    result.error = "reported front differs from the minimal validated set";
    return result;
  }

  result.certified = true;
  return result;
}

std::string merged_proof_to_text(std::size_t objective,
                                 std::span<const ShardProof> shards) {
  std::string out{kMergedProofHeader};
  out += "\nobjective ";
  out += std::to_string(objective);
  out += '\n';
  for (const ShardProof& s : shards) {
    out += "shard ";
    out += std::to_string(s.lo);
    out += ' ';
    out += std::to_string(s.hi);
    out += ' ';
    out += std::to_string(s.proof.size());
    out += '\n';
    out += s.proof;
    out += '\n';
  }
  return out;
}

std::string parse_merged_proof(std::string_view text, std::size_t& objective,
                               std::vector<ShardProof>& shards) {
  shards.clear();
  std::string_view rest = text;
  if (take_line(rest) != kMergedProofHeader) {
    return "missing merged-proof header";
  }
  std::string_view obj_line = take_line(rest);
  if (take_token(obj_line) != "objective") return "missing objective line";
  std::int64_t obj = -1;
  if (!parse_number(take_token(obj_line), obj) || obj < 0) {
    return "malformed objective index";
  }
  objective = static_cast<std::size_t>(obj);
  while (!rest.empty()) {
    std::string_view line = take_line(rest);
    if (line.empty()) continue;
    if (take_token(line) != "shard") return "expected a shard block";
    ShardProof shard;
    std::int64_t nbytes = -1;
    if (!parse_number(take_token(line), shard.lo) ||
        !parse_number(take_token(line), shard.hi) ||
        !parse_number(take_token(line), nbytes) || nbytes < 0) {
      return "malformed shard block header";
    }
    if (static_cast<std::size_t>(nbytes) > rest.size()) {
      return "truncated shard payload";
    }
    shard.proof.assign(rest.substr(0, static_cast<std::size_t>(nbytes)));
    rest.remove_prefix(static_cast<std::size_t>(nbytes));
    if (!rest.empty() && rest.front() == '\n') rest.remove_prefix(1);
    shards.push_back(std::move(shard));
  }
  if (shards.empty()) return "merged proof carries no shards";
  return {};
}

}  // namespace aspmt::cert
