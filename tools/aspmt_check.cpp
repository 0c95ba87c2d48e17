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
// A plain stream is checked block by block as it is read (file or pipe, e.g.
// `cat proof.txt | aspmt_check /dev/stdin`), so its text is never held
// whole; a merged container is read whole first.
//
// Exit code: 0 when the proof verifies, 1 otherwise, 2 on usage errors.
#include <fstream>
#include <iostream>
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

/// Bytes read and fed to the checker at a time.
constexpr std::size_t kBlockBytes = std::size_t{1} << 20;

/// Read the next block of the stream into `block` (shorter only at its
/// end); false once nothing is left.
bool next_block(std::istream& in, std::string& block) {
  block.resize(kBlockBytes);
  in.read(block.data(), static_cast<std::streamsize>(block.size()));
  block.resize(static_cast<std::size_t>(in.gcount()));
  return !block.empty();
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
  std::string block;
  next_block(in, block);
  if (block.rfind(aspmt::cert::kMergedProofHeader, 0) == 0) {
    std::string text = block;
    while (next_block(in, block)) text += block;
    return check_merged(text);
  }

  aspmt::cert::ProofChecker checker(options);
  while (checker.feed(block) && next_block(in, block)) {
  }
  const aspmt::cert::CheckResult r = checker.finish();
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
