// The certification layer itself: hand-written proofs exercise every step
// kind of the checker, real explorer proofs must verify, and mutated real
// proofs must be rejected — a checker that accepts everything would make
// `certified: yes` meaningless.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "cert/certify.hpp"
#include "cert/checker.hpp"
#include "dse/explorer.hpp"
#include "synth_fixtures.hpp"
#include "test_util.hpp"

namespace aspmt {
namespace {

/// Feed `proof` to a ProofChecker in the pieces `cut` chooses: cut(pos)
/// is the length of the piece starting at byte `pos`.
cert::CheckResult check_in_pieces(
    std::string_view proof, const cert::CheckOptions& opts,
    const std::function<std::size_t(std::size_t)>& cut) {
  cert::ProofChecker checker(opts);
  for (std::size_t pos = 0; pos < proof.size();) {
    const std::size_t n = std::max<std::size_t>(1, cut(pos));
    checker.feed(proof.substr(pos, n));
    pos += n;
  }
  return checker.finish();
}

/// The incremental checker must give check_proof's result, field for field
/// and error line included, however the stream is split: one byte at a
/// time, at random lengths, and inside every number.
void expect_splits_agree(std::string_view proof, const cert::CheckOptions& opts,
                         const cert::CheckResult& whole) {
  EXPECT_EQ(check_in_pieces(proof, opts, [](std::size_t) { return 1; }), whole)
      << "1-byte pieces";
  std::mt19937_64 rng(proof.size());
  EXPECT_EQ(check_in_pieces(proof, opts,
                            [&](std::size_t) { return 1 + rng() % 97; }),
            whole)
      << "random pieces";
  // Each piece ends right after the first digit of a number with more.
  const auto mid_number = [&](std::size_t pos) {
    std::size_t i = pos + 1;
    while (i + 1 < proof.size() &&
           !(std::isdigit(static_cast<unsigned char>(proof[i - 1])) &&
             std::isdigit(static_cast<unsigned char>(proof[i])) &&
             (i < 2 || !std::isdigit(static_cast<unsigned char>(proof[i - 2]))))) {
      ++i;
    }
    return i - pos;
  };
  EXPECT_EQ(check_in_pieces(proof, opts, mid_number), whole) << "mid-number cuts";
}

cert::CheckResult check(const std::string& proof, bool require_unsat = false) {
  cert::CheckOptions opts;
  opts.require_global_unsat = require_unsat;
  const cert::CheckResult whole = cert::check_proof(proof, opts);
  expect_splits_agree(proof, opts, whole);
  return whole;
}

TEST(ProofChecker, RejectsMissingHeader) {
  const auto r = check("I 1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("header"), std::string::npos) << r.error;
}

TEST(ProofChecker, VerifiesUnitContradiction) {
  const auto r = check("p aspmt 1\nI 1 0\nI -1 0\nU 0\n", true);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.concluded_global_unsat);
  EXPECT_EQ(r.input_clauses, 2U);
}

TEST(ProofChecker, RejectsUnsupportedConclusion) {
  const auto r = check("p aspmt 1\nI 1 2 0\nU 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("Unsat conclusion"), std::string::npos) << r.error;
}

TEST(ProofChecker, RejectsNonRupLearntClause) {
  const auto r = check("p aspmt 1\nI 1 2 0\nL 1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not RUP"), std::string::npos) << r.error;
}

TEST(ProofChecker, AcceptsRupLearntClauseAndAssumptionConclusion) {
  const auto r = check("p aspmt 1\nI 1 2 0\nI 1 -2 0\nL 1 0\nU -1 0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.learnt_clauses, 1U);
  EXPECT_EQ(r.conclusions, 1U);
  EXPECT_FALSE(r.concluded_global_unsat);
}

TEST(ProofChecker, RequireUnsatRejectsSatOnlyProof) {
  const auto r = check("p aspmt 1\nI 1 2 0\nM 0\n", true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("never concludes"), std::string::npos) << r.error;
}

TEST(ProofChecker, VerifiesLinearSumLemma) {
  // sum 0 = 3*[g1] + 4*[g2], bound 5: both guards set exceeds the bound.
  const std::string prefix = "p aspmt 1\nS 0 2 1 3 2 4\nSB 0 5 0\n";
  EXPECT_TRUE(check(prefix + "T LS 0 5 0 ; -1 -2 0\n").ok);
  // A single guard only reaches 3 <= 5: the lemma claims too much.
  const auto weak = check(prefix + "T LS 0 5 0 ; -1 0\n");
  EXPECT_FALSE(weak.ok);
  EXPECT_NE(weak.error.find("do not exceed"), std::string::npos) << weak.error;
  // Undeclared bound: the lemma cites a constraint the solver never had.
  const auto undeclared = check(prefix + "T LS 0 4 0 ; -1 -2 0\n");
  EXPECT_FALSE(undeclared.ok);
  EXPECT_NE(undeclared.error.find("never declared"), std::string::npos)
      << undeclared.error;
}

TEST(ProofChecker, VerifiesDifferenceCycleLemma) {
  const std::string prefix =
      "p aspmt 1\nN 0\nN 1\nE 0 0 1 2 1 3\nE 1 1 0 2 1 4\n";
  EXPECT_TRUE(check(prefix + "T DC ; -3 -4 0\n").ok);
  // Dropping one guard from the clause breaks the cycle.
  const auto broken = check(prefix + "T DC ; -3 0\n");
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(broken.error.find("no positive cycle"), std::string::npos)
      << broken.error;
}

TEST(ProofChecker, VerifiesNodeBoundLemma) {
  const std::string prefix =
      "p aspmt 1\nN 0\nN 1\nE 0 0 1 7 1 3\nNB 1 5 2\n";
  // Guarded longest path to node 1 is 7 > 5; clause negates guard and act.
  EXPECT_TRUE(check(prefix + "T DB 1 5 2 ; -3 -2 0\n").ok);
  const auto missing_act = check(prefix + "T DB 1 5 2 ; -3 0\n");
  EXPECT_FALSE(missing_act.ok);
  EXPECT_NE(missing_act.error.find("activation"), std::string::npos)
      << missing_act.error;
}

TEST(ProofChecker, VerifiesDominanceLemma) {
  // Objective 0 is sum 0 = 5*[g1]; feasible point (3) <= threshold (4).
  const std::string prefix =
      "p aspmt 1\nS 0 1 1 5\nO 0 L 0\nF 1 3 0\n";
  EXPECT_TRUE(check(prefix + "T DOM 1 4 ; -1 0\n").ok);
  // Without any feasible point at or below the threshold the pruning is
  // unjustified.
  const auto unjustified = check("p aspmt 1\nS 0 1 1 5\nO 0 L 0\nT DOM 1 4 ; -1 0\n");
  EXPECT_FALSE(unjustified.ok);
  EXPECT_NE(unjustified.error.find("no certified feasible point"),
            std::string::npos)
      << unjustified.error;
}

TEST(ProofChecker, RejectsOutOfRangeLiterals) {
  // asp::proof_int emits 1 <= |l| <= 2^31; anything else is named with its
  // line instead of sizing (or overflowing) the checker's tables.
  for (const std::string step :
       {"I 9223372036854775807 0", "I 4000000000 0", "I -9223372036854775808 0",
        "S 0 1 4000000000 3", "L 1 -2147483649 0"}) {
    const auto r = check("p aspmt 1\nI 1 2 0\n" + step + "\n");
    EXPECT_FALSE(r.ok) << step;
    EXPECT_EQ(r.error, "line 3: literal out of range") << step;
  }
}

TEST(ProofChecker, RejectsUnfoundedSetSteps) {
  // The explorer compiles tight programs only, so the format has no program
  // rule declarations and no loop nogoods.  Re-derived against no rules at
  // all, a UF lemma would let this proof conclude Unsat for the satisfiable
  // clause {1}.
  const auto uf = check("p aspmt 1\nI 1 0\nT UF 1 ; -1 0\nU 0\n", true);
  EXPECT_FALSE(uf.ok);
  EXPECT_FALSE(uf.concluded_global_unsat);
  EXPECT_EQ(uf.error, "line 3: theory lemma rejected: unknown theory tag");

  const auto pr =
      check("p aspmt 1\nPR 1 2 1 1\nI 1 0\nT UF 1 ; -1 0\nU 0\n", true);
  EXPECT_FALSE(pr.ok);
  EXPECT_EQ(pr.error, "line 2: unknown step kind 'PR'");
}

// ---- deletions --------------------------------------------------------------

TEST(ProofChecker, DeletionStopsPropagation) {
  const std::string db = "p aspmt 1\nI 1 2 0\nI 1 -2 0\n";
  EXPECT_TRUE(check(db + "L 1 0\n").ok);
  // The reversed literal order checks that matching ignores it.
  const auto r = check(db + "D -2 1 0\nL 1 0\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "line 5: learnt clause is not RUP");
  EXPECT_EQ(r.deletions, 1U);
}

TEST(ProofChecker, DeletingOneOfTwoCopiesKeepsTheOther) {
  const std::string db = "p aspmt 1\nI 1 2 0\nI 2 1 0\nI 1 -2 0\n";
  const auto one = check(db + "D 1 2 0\nL 1 0\n");
  EXPECT_TRUE(one.ok) << one.error;
  const auto both = check(db + "D 1 2 0\nD 2 1 0\nL 1 0\n");
  EXPECT_FALSE(both.ok);
  EXPECT_EQ(both.error, "line 7: learnt clause is not RUP");
  // The same with a few thousand clauses between the two deletions.
  std::string filler;
  for (int v = 3; v < 3003; ++v) {
    filler += "I " + std::to_string(v) + " " + std::to_string(v + 1) + " 0\n";
  }
  const auto apart = check(db + "D 1 2 0\n" + filler + "D 2 1 0\nL 1 0\n");
  EXPECT_FALSE(apart.ok);
  EXPECT_EQ(apart.error, "line 3007: learnt clause is not RUP");
}

TEST(ProofChecker, UnmatchedDeletionIsCountedAndIgnored) {
  // A clause never added, and a sub- and a superset of one, match nothing.
  const auto r = check(
      "p aspmt 1\nI 1 2 0\nI 1 -2 0\nD 3 4 0\nD 1 0\nD 1 2 3 0\nL 1 0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.deletions, 3U);
  EXPECT_EQ(r.learnt_clauses, 1U);
}

TEST(ProofChecker, RootFactsSurviveDeletionOfTheirUnitClause) {
  // -2 is a root fact, and through {1, 2} so is 1.  Deleting both clauses
  // keeps both facts.
  const auto r = check(
      "p aspmt 1\nI 1 2 0\nI -2 0\nD -2 0\nD 1 2 0\nL 1 0\nL -2 0\nU 2 0\n");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.learnt_clauses, 2U);
  EXPECT_EQ(r.deletions, 2U);
  EXPECT_EQ(r.conclusions, 1U);
}

/// The checker's clause database, written naively: clauses that are unit or
/// false under the root facts on arrival only add root facts, root facts
/// outlive the clauses that produced them, a deletion deactivates the
/// oldest active clause with the same literal set, and RUP is unit
/// propagation to a fixpoint over every active clause.
class NaiveRup {
 public:
  using Clause = std::vector<int>;  // sorted, distinct

  explicit NaiveRup(int vars) : root_(static_cast<std::size_t>(vars) + 1, 0) {}

  void add(const Clause& c) {
    if (conflict_ || tautology(c)) return;
    Clause open;
    for (const int l : c) {
      if (value(root_, l) != -1) open.push_back(l);
    }
    if (open.size() >= 2) {
      active_.push_back(c);
      alive_.push_back(true);
    } else if (open.empty()) {
      conflict_ = true;
    } else {
      set(root_, open[0]);
      conflict_ = !fixpoint(root_);
    }
  }

  [[nodiscard]] bool rup(const Clause& c) const {
    if (conflict_) return true;
    std::vector<int> a = root_;
    for (const int l : c) {
      if (value(a, l) == 1) return true;
      if (value(a, l) == 0) set(a, -l);
    }
    return !fixpoint(a);
  }

  bool erase(const Clause& c) {
    for (std::size_t i = 0; i < active_.size(); ++i) {
      if (alive_[i] && active_[i] == c) {
        alive_[i] = false;
        return true;
      }
    }
    return false;
  }

 private:
  static int value(const std::vector<int>& a, int l) {
    const int v = a[static_cast<std::size_t>(std::abs(l))];
    return l > 0 ? v : -v;
  }
  static void set(std::vector<int>& a, int l) {
    a[static_cast<std::size_t>(std::abs(l))] = l > 0 ? 1 : -1;
  }
  static bool tautology(const Clause& c) {
    return std::any_of(c.begin(), c.end(), [&](int l) {
      return std::binary_search(c.begin(), c.end(), -l);
    });
  }

  /// False on a conflict.
  [[nodiscard]] bool fixpoint(std::vector<int>& a) const {
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = 0; i < active_.size(); ++i) {
        if (!alive_[i]) continue;
        int open = 0;
        int unit = 0;
        bool satisfied = false;
        for (const int l : active_[i]) {
          const int v = value(a, l);
          satisfied = satisfied || v == 1;
          if (v == 0) {
            ++open;
            unit = l;
          }
        }
        if (satisfied) continue;
        if (open == 0) return false;
        if (open == 1) {
          set(a, unit);
          changed = true;
        }
      }
    }
    return true;
  }

  std::vector<int> root_;  // var -> -1/0/+1
  std::vector<Clause> active_;
  std::vector<bool> alive_;
  bool conflict_ = false;
};

TEST(ProofChecker, RupVerdictsMatchANaiveReference) {
  std::size_t rejected = 0;
  std::size_t learnt_total = 0;
  std::size_t matched_deletions = 0;
  constexpr std::uint64_t kTrials = 300;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const std::uint64_t seed = test::fuzz_seed(trial);
    std::mt19937_64 rng(seed);
    const int vars = 3 + static_cast<int>(rng() % 10);
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
    const auto random_lit = [&] {
      const int v = 1 + static_cast<int>(pick(static_cast<std::size_t>(vars)));
      return rng() % 2 == 0 ? v : -v;
    };
    const auto canonical = [](NaiveRup::Clause c) {
      std::sort(c.begin(), c.end());
      c.erase(std::unique(c.begin(), c.end()), c.end());
      return c;
    };

    std::string proof = "p aspmt 1\n";
    std::size_t line = 1;
    const auto emit = [&](char kind, const NaiveRup::Clause& c) {
      proof += kind;
      for (const int l : c) {
        proof += ' ';
        proof += std::to_string(l);
      }
      proof += " 0\n";
      ++line;
    };

    NaiveRup ref(vars);
    std::vector<NaiveRup::Clause> added;  // every I and accepted L, as written
    std::size_t learnt = 0;
    std::size_t fail_line = 0;
    const std::size_t steps = 10 + pick(50);
    for (std::size_t s = 0; s < steps && fail_line == 0; ++s) {
      const std::size_t kind = pick(10);
      NaiveRup::Clause c;
      if (kind < 3 || added.empty()) {
        for (std::size_t k = 1 + pick(4); k > 0; --k) c.push_back(random_lit());
        emit('I', c);
        ref.add(canonical(c));
        added.push_back(c);
        continue;
      }
      if (kind < 7) {
        // A resolvent or a weakening of earlier clauses (RUP unless a
        // deletion took a premise away), or a random clause.
        const NaiveRup::Clause& a = added[pick(added.size())];
        const NaiveRup::Clause& b = added[pick(added.size())];
        const std::size_t how = pick(20);
        if (how < 10) {
          const auto clash = std::find_if(a.begin(), a.end(), [&](int l) {
            return std::find(b.begin(), b.end(), -l) != b.end();
          });
          if (clash != a.end()) {
            for (const int l : a) {
              if (l != *clash) c.push_back(l);
            }
            for (const int l : b) {
              if (l != -*clash) c.push_back(l);
            }
          }
        }
        if (how < 19 && c.empty()) {
          c = a;
          c.push_back(random_lit());
        }
        if (c.empty()) {
          for (std::size_t k = 1 + pick(3); k > 0; --k) c.push_back(random_lit());
        }
        std::shuffle(c.begin(), c.end(), rng);
        emit('L', c);
        if (ref.rup(canonical(c))) {
          ++learnt;
          ref.add(canonical(c));
          added.push_back(c);
        } else {
          fail_line = line;
        }
        continue;
      }
      // A deletion of an earlier clause in another literal order, or of a
      // random clause that most likely matches nothing.
      if (pick(4) != 0) {
        c = added[pick(added.size())];
      } else {
        for (std::size_t k = 1 + pick(3); k > 0; --k) c.push_back(random_lit());
      }
      std::shuffle(c.begin(), c.end(), rng);
      emit('D', c);
      if (ref.erase(canonical(c))) ++matched_deletions;
    }

    const auto r = check(proof);
    SCOPED_TRACE("seed " + std::to_string(seed) + ":\n" + proof);
    EXPECT_EQ(r.ok, fail_line == 0) << r.error;
    EXPECT_EQ(r.learnt_clauses, learnt);
    if (fail_line != 0) {
      EXPECT_EQ(r.error, "line " + std::to_string(fail_line) +
                             ": learnt clause is not RUP");
      ++rejected;
    }
    learnt_total += learnt;
  }
  // The generator exercises both verdicts and deletions that bite.
  EXPECT_GT(rejected, kTrials / 10);
  EXPECT_LT(rejected, kTrials - kTrials / 10);
  EXPECT_GT(learnt_total, kTrials);
  EXPECT_GT(matched_deletions, kTrials);
}

// ---- mutations of a real explorer proof -----------------------------------

std::string real_proof() {
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(test::chain3_bus(), opts);
  EXPECT_TRUE(r.certified) << r.certificate_error;
  EXPECT_FALSE(r.proof.empty());
  return r.proof;
}

TEST(ProofMutation, PristineProofVerifies) {
  const auto r = check(real_proof(), true);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.theory_lemmas, 0U);
  EXPECT_GT(r.learnt_clauses, 0U);
}

TEST(ProofMutation, BogusLearntClauseRejected) {
  std::string proof = real_proof();
  // A fresh-variable unit clause right after the header can never be RUP.
  const std::size_t header_end = proof.find('\n');
  ASSERT_NE(header_end, std::string::npos);
  proof.insert(header_end + 1, "L 999999 0\n");
  const auto r = check(proof, true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("not RUP"), std::string::npos) << r.error;
}

TEST(ProofMutation, DroppedConclusionRejected) {
  std::string proof = real_proof();
  // Remove the global "U 0" conclusion line(s).
  std::string out;
  std::size_t pos = 0;
  while (pos < proof.size()) {
    const std::size_t eol = proof.find('\n', pos);
    const std::string line = proof.substr(pos, eol - pos);
    if (line != "U 0") out += line + "\n";
    pos = eol == std::string::npos ? proof.size() : eol + 1;
  }
  const auto r = check(out, true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("never concludes"), std::string::npos) << r.error;
}

TEST(ProofMutation, UnknownTheoryTagRejected) {
  std::string proof = real_proof();
  const std::size_t pos = proof.find("\nT ");
  ASSERT_NE(pos, std::string::npos) << "proof has no theory lemma";
  proof.replace(pos, 3, "\nT ZZ");  // "T <tag>" -> "T ZZ<tag>"
  EXPECT_FALSE(check(proof, true).ok);
}

TEST(ProofMutation, TamperedSumBoundRejected) {
  std::string proof = real_proof();
  const std::size_t pos = proof.find("\nT LS ");
  ASSERT_NE(pos, std::string::npos) << "proof has no linear-sum lemma";
  // Bump the cited bound far past anything declared.
  std::size_t tok = pos + 6;                      // after "\nT LS "
  tok = proof.find(' ', tok);                     // skip sum id
  ASSERT_NE(tok, std::string::npos);
  const std::size_t bound_end = proof.find(' ', tok + 1);
  ASSERT_NE(bound_end, std::string::npos);
  proof.replace(tok + 1, bound_end - tok - 1, "1000001");
  const auto r = check(proof, true);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("theory lemma rejected"), std::string::npos)
      << r.error;
}

// ---- one-band certification end-to-end ------------------------------------

TEST(CertifyFront, SingletonRoundTrips) {
  const synth::Specification spec = test::singleton();
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.certified) << r.certificate_error;
  ASSERT_EQ(r.front.size(), 1U);
  ASSERT_EQ(r.witnesses.size(), 1U);

  std::vector<std::pair<pareto::Vec, synth::Implementation>> pairs;
  pairs.emplace_back(r.front[0], r.witnesses[0]);

  // A single-process run is the one unbounded band of cert::certify.
  const auto certify =
      [&](std::span<const std::pair<pareto::Vec, synth::Implementation>> found,
          std::span<const pareto::Vec> front, std::string proof) {
        const cert::ShardProof band{.proof = std::move(proof)};
        return cert::certify(spec, found, front, {&band, 1}, 0);
      };

  const auto ok = certify(pairs, r.front, r.proof);
  EXPECT_TRUE(ok.certified) << ok.error;
  EXPECT_EQ(ok.witnesses_validated, 1U);

  // An extra fabricated front point must be caught even though the proof
  // and the witnesses are untouched.
  std::vector<pareto::Vec> padded = r.front;
  padded.push_back({0, 0, 0});
  const auto extra = certify(pairs, padded, r.proof);
  EXPECT_FALSE(extra.certified);

  // A discovery whose recorded objectives disagree with its witness is the
  // witness-forgery case.
  auto forged = pairs;
  forged[0].first[0] += 1;
  const auto forgery = certify(forged, r.front, r.proof);
  EXPECT_FALSE(forgery.certified);
  EXPECT_NE(forgery.error.find("disagree"), std::string::npos) << forgery.error;

  // And an empty proof certifies nothing.
  const auto empty = certify(pairs, r.front, "");
  EXPECT_FALSE(empty.certified);
}

}  // namespace
}  // namespace aspmt
