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
// A merged container is verified by cert::check_shards, the same shard and
// coverage checks as `aspmt_dse explore --certify`: every embedded stream
// must check out, cover its claimed band with a global Unsat or a proven
// shard box, declare no bound under a negative activation, and share shard
// 0's declaration core (unconditional bounds included); the claimed bands
// must tile the whole objective line (the cross-shard coverage argument —
// see cert/certify.hpp).  --require-unsat is implied per shard: each
// band-conditional Unsat *is* the shard's completeness certificate.
//
// Exit code: 0 when the proof verifies, 1 otherwise, 2 on usage errors.
#include <fstream>
#include <iostream>
#include <iterator>
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

  const ShardsCheck r = check_shards(shards, objective, CheckOptions{});
  for (std::size_t i = 0; i < r.shards_checked; ++i) {
    const CheckResult& c = r.checks[i];
    std::cout << "shard " << i << ": verified (" << c.theory_lemmas
              << " theory lemmas, " << c.conclusions << " conclusion(s), "
              << c.shard_boxes.size() << " box(es))\n";
  }
  if (!r.error.empty()) {
    std::cout << "REJECTED: " << r.error << "\n";
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
