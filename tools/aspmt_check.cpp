// aspmt_check — standalone verifier for `p aspmt 1` proof streams and
// `p aspmt-merged 1` distributed-run containers.
//
//   aspmt_check proof.txt [--require-unsat]
//
// Replays the proof with the solver-independent checker: every learnt
// clause is RUP-verified, every theory lemma re-derived from the declared
// theory data, every Unsat conclusion discharged by unit propagation.
// With --require-unsat the stream must additionally contain a verified
// assumption-free Unsat conclusion (the completeness certificate of an
// exhaustive exploration).  Feasible-point steps are taken at face value
// here; end-to-end witness validation is `aspmt_dse explore --certify`.
//
// A merged container is verified shard by shard: every embedded stream must
// check out, prove a shard box covering its claimed band, declare no
// unconditional bound, and share shard 0's declaration core; the claimed
// bands must tile the whole objective line (the cross-shard coverage
// argument — see cert/certify.hpp).  --require-unsat is implied per shard:
// each band-conditional Unsat *is* the shard's completeness certificate.
//
// Exit code: 0 when the proof verifies, 1 otherwise, 2 on usage errors.
#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cert/certify.hpp"
#include "cert/checker.hpp"

namespace {

int check_merged(const std::string& text) {
  using namespace aspmt::cert;
  std::size_t objective = 0;
  std::vector<ShardProof> shards;
  const std::string perr = parse_merged_proof(text, objective, shards);
  if (!perr.empty()) {
    std::cout << "REJECTED: " << perr << "\n";
    return 1;
  }
  std::cout << "merged container: " << shards.size()
            << " shard(s) on objective " << objective << "\n";

  CheckOptions options;
  options.shard_objective = static_cast<std::int64_t>(objective);
  std::string core;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardProof& shard = shards[i];
    const CheckResult r = check_proof(shard.proof, options);
    if (!r.ok) {
      std::cout << "REJECTED: shard " << i << ": " << r.error << "\n";
      return 1;
    }
    if (r.truncated) {
      std::cout << "REJECTED: shard " << i
                << " stream truncated — no completeness claim\n";
      return 1;
    }
    if (r.unsafe_bounds) {
      std::cout << "REJECTED: shard " << i
                << " declares an unconditional bound\n";
      return 1;
    }
    bool covered = false;
    for (const std::array<std::int64_t, 2>& box : r.shard_boxes) {
      if (box[0] <= shard.lo && box[1] >= shard.hi) {
        covered = true;
        break;
      }
    }
    if (!covered) {
      std::cout << "REJECTED: shard " << i
                << " proves no box covering its claimed band\n";
      return 1;
    }
    // All shards must have solved the same declared constraint system.
    std::string shard_core;
    std::istringstream lines(shard.proof);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string head = line.substr(0, line.find(' '));
      if (head == "I" || head == "S" || head == "N" || head == "E" ||
          head == "O" || head == "PR") {
        shard_core += line + "\n";
      }
    }
    if (i == 0) {
      core = std::move(shard_core);
    } else if (shard_core != core) {
      std::cout << "REJECTED: shard " << i
                << " solved a different constraint system than shard 0\n";
      return 1;
    }
    std::cout << "shard " << i << ": verified (" << r.theory_lemmas
              << " theory lemmas, " << r.conclusions << " conclusion(s), "
              << r.shard_boxes.size() << " box(es))\n";
  }

  // Coverage: the claimed bands tile (-inf, +inf) exactly.
  std::vector<std::array<std::int64_t, 2>> bands;
  bands.reserve(shards.size());
  for (const ShardProof& s : shards) bands.push_back({s.lo, s.hi});
  std::sort(bands.begin(), bands.end());
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  bool tiled = bands.front()[0] == kMin && bands.back()[1] == kMax;
  for (std::size_t i = 0; tiled && i + 1 < bands.size(); ++i) {
    if (bands[i + 1][0] != bands[i][1] + 1) tiled = false;
  }
  if (!tiled) {
    std::cout << "REJECTED: shard bands do not tile the objective line\n";
    return 1;
  }
  std::cout << "VERIFIED (band union covers the objective space)\n";
  return 0;
}

/// The whole stream in one string: sized up front when the file can seek,
/// read to its end otherwise (a pipe).
std::string read_all(std::ifstream& in) {
  std::string text;
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size > 0) {
    text.resize(static_cast<std::size_t>(size));
    in.seekg(0);
    in.read(text.data(), size);
    text.resize(static_cast<std::size_t>(in.gcount()));
  } else {
    in.clear();
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  aspmt::cert::CheckOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require-unsat") {
      options.require_global_unsat = true;
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::cerr << "usage: aspmt_check proof.txt [--require-unsat]\n";
      return 2;
    }
  }
  if (path.empty()) {
    std::cerr << "usage: aspmt_check proof.txt [--require-unsat]\n";
    return 2;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read '" << path << "'\n";
    return 2;
  }
  const std::string text = read_all(in);

  if (text.rfind(aspmt::cert::kMergedProofHeader, 0) == 0) {
    return check_merged(text);
  }

  const aspmt::cert::CheckResult r = aspmt::cert::check_proof(text, options);
  std::cout << "steps: " << r.input_clauses << " input, " << r.learnt_clauses
            << " learnt, " << r.theory_lemmas << " theory, " << r.deletions
            << " deleted, " << r.conclusions << " conclusion(s), "
            << r.feasible_points << " feasible point(s)\n";
  if (!r.ok) {
    std::cout << "REJECTED: " << r.error << "\n";
    return 1;
  }
  std::cout << "VERIFIED"
            << (r.concluded_global_unsat ? " (global unsatisfiability concluded)"
                                         : "")
            << (r.truncated ? " (stream truncated — no completeness claim)" : "")
            << "\n";
  return 0;
}
