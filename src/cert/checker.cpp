#include "cert/checker.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

namespace aspmt::cert {
namespace {

// A proof literal l (signed, 1-based) is checked against 1 <= |l| <= 2^31,
// the range asp::proof_int emits, and then stored as the 32-bit code
// 2·(|l|−1) + (l < 0): the two phases of a variable are adjacent and
// `code ^ 1` is the negation.
using Code = std::uint32_t;
using Codes = std::vector<Code>;

constexpr std::int64_t kMaxVar = std::int64_t{1} << 31;

[[nodiscard]] constexpr bool in_range(std::int64_t l) noexcept {
  return l != 0 && l >= -kMaxVar && l <= kMaxVar;
}

/// Requires in_range(l).
[[nodiscard]] constexpr Code code_of(std::int64_t l) noexcept {
  return l > 0 ? static_cast<Code>(2 * (l - 1)) : static_cast<Code>(2 * (-l - 1) + 1);
}

/// Sort by variable, positive phase first — makes duplicates and
/// complementary pairs adjacent and gives the deletion index its key order.
void canonicalize(Codes& lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
}

[[nodiscard]] bool is_tautology(const Codes& lits) {
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if ((lits[i] ^ 1) == lits[i + 1]) return true;
  }
  return false;
}

/// Hash of a canonical literal list (the deletion index key).
[[nodiscard]] std::uint64_t hash_lits(const Codes& lits) noexcept {
  std::uint64_t h = lits.size();
  for (const Code c : lits) {
    h = (h ^ c) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 29;
  }
  return h;
}

/// Whitespace tokenizer over one proof line.
class Line {
 public:
  Line(const char* begin, const char* end) : p_(begin), end_(end) {}

  bool word(std::string_view& out) {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t')) ++p_;
    if (p_ == end_) return false;
    const char* start = p_;
    while (p_ != end_ && *p_ != ' ' && *p_ != '\t') ++p_;
    out = std::string_view(start, static_cast<std::size_t>(p_ - start));
    return true;
  }

  bool integer(std::int64_t& out) {
    std::string_view w;
    if (!word(w)) return false;
    const auto res = std::from_chars(w.data(), w.data() + w.size(), out);
    return res.ec == std::errc{} && res.ptr == w.data() + w.size();
  }

 private:
  const char* p_;
  const char* end_;
};

struct Edge {
  std::int64_t from = 0;
  std::int64_t to = 0;
  std::int64_t weight = 0;
  Codes guards;  // all must be true for the edge to apply
};

/// One objective binding as declared by an O line: a leaf ('L' sum, 'D'
/// node) or a combinator ('X' lex with caps, 'M' minmax, 'W' weighted with
/// weights) over such trees.  kind 0 marks an axis whose
/// binding was never declared.
struct ObjTree {
  char kind = 0;
  std::int64_t id = 0;                // leaf theory id
  std::vector<std::int64_t> params;   // caps ('X') or weights ('W')
  std::vector<ObjTree> children;
};

/// A watch-list entry: the clause at `cref`, and one of its literals whose
/// truth satisfies the clause without reading its memory.
struct Watch {
  std::uint32_t cref = 0;
  Code blocker = 0;
};

/// The whole verification state: clause database with watched-literal unit
/// propagation plus the declared theory tables.
class Checker {
 public:
  explicit Checker(CheckOptions options) : opts_(std::move(options)) {}

  void admit(std::vector<std::int64_t> point) {
    opts_.feasible_points.push_back(std::move(point));
  }
  bool feed(std::string_view bytes);
  CheckResult finish();
  [[nodiscard]] bool failed_for_want_of_points() const noexcept {
    return want_of_points_;
  }

 private:
  /// Replay one line, without its '\n'.  False once the check has failed.
  bool step(const char* begin, const char* end);

  /// Record the first failure at the current line; always false.
  bool fail(std::string_view what) {
    failed_ = true;
    result_.ok = false;
    result_.error = "line " + std::to_string(line_no_) + ": " + std::string(what);
    return false;
  }

  // ---- unit propagation ---------------------------------------------------
  //
  // Clauses live in one flat arena, each as [size<<1 | deleted] followed by
  // its literal codes; a clause is addressed by the offset of its header
  // (cref).  watches_[p] holds the clauses watching ¬p, visited when p
  // becomes true.

  /// Grow every per-variable and per-literal table to cover variable index
  /// `var` (0-based).
  void ensure_var(Code var) {
    if (var < var_flags_.size()) return;
    const std::size_t n = static_cast<std::size_t>(var) + 1;
    var_flags_.resize(n, 0);
    val_.resize(2 * n, 0);
    lit_mark_.resize(2 * n, 0);
    watches_.resize(2 * n);
  }

  void assign(Code c) {
    val_[c] = 1;
    val_[c ^ 1] = -1;
    trail_.push_back(c);
  }

  /// False iff `c` is already false.
  bool enqueue(Code c) {
    if (val_[c] == 1) return true;
    if (val_[c] == -1) return false;
    assign(c);
    return true;
  }

  bool propagate() {
    while (qhead_ < trail_.size()) {
      const Code p = trail_[qhead_++];
      const Code false_lit = p ^ 1;
      std::vector<Watch>& ws = watches_[p];
      Watch* i = ws.data();
      Watch* j = i;
      Watch* const end = i + ws.size();
      while (i != end) {
        if (val_[i->blocker] == 1) {
          *j++ = *i++;
          continue;
        }
        const std::uint32_t cref = i->cref;
        ++i;
        std::uint32_t* const header = &arena_[cref];
        if ((*header & 1) != 0) continue;  // deleted: drop the watch
        const std::uint32_t size = *header >> 1;
        Code* const lits = header + 1;
        if (lits[0] == false_lit) {
          lits[0] = lits[1];
          lits[1] = false_lit;
        }
        const Watch w{cref, lits[0]};
        if (val_[lits[0]] == 1) {
          *j++ = w;
          continue;
        }
        bool moved = false;
        for (std::uint32_t k = 2; k < size; ++k) {
          if (val_[lits[k]] != -1) {
            lits[1] = lits[k];
            lits[k] = false_lit;
            watches_[lits[1] ^ 1].push_back(w);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        *j++ = w;  // clause stays unit/conflicting on lits[0]
        if (val_[lits[0]] == -1) {
          while (i != end) *j++ = *i++;
          ws.resize(static_cast<std::size_t>(j - ws.data()));
          return false;
        }
        assign(lits[0]);
      }
      ws.resize(static_cast<std::size_t>(j - ws.data()));
    }
    return true;
  }

  void undo_to(std::size_t save) {
    for (std::size_t k = save; k < trail_.size(); ++k) {
      val_[trail_[k]] = 0;
      val_[trail_[k] ^ 1] = 0;
    }
    trail_.resize(save);
    qhead_ = std::min(qhead_, save);
  }

  /// RUP: asserting the negation of every clause literal propagates to a
  /// conflict (or the clause is already satisfied/tautological at root).
  [[nodiscard]] bool rup(const Codes& clause) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool satisfied = false;
    for (const Code c : clause) {
      if (val_[c] == 1) {  // root unit (or a complementary clause literal)
        satisfied = true;
        break;
      }
      if (val_[c] == 0) assign(c ^ 1);
    }
    const bool conflict = !satisfied && !propagate();
    undo_to(save);
    return conflict || satisfied;
  }

  /// The clause set is contradictory once all `assumptions` are asserted.
  [[nodiscard]] bool refutes_assumptions(const Codes& assumptions) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool conflict = false;
    for (const Code a : assumptions) {
      if (!enqueue(a)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) conflict = !propagate();
    undo_to(save);
    return conflict;
  }

  /// Add a verified/axiomatic clause to the database and restore the root
  /// fixpoint.  `lits` must be canonical; it is reordered.  False iff the
  /// arena would outgrow kMaxArena.
  [[nodiscard]] bool install(Codes& lits) {
    if (root_conflict_ || is_tautology(lits)) return true;
    if (lits.empty()) {
      root_conflict_ = true;
      return true;
    }
    const std::uint64_t hash = hash_lits(lits);
    // Pick two non-false watches; fewer mean the clause is unit or false
    // under the root assignment right away.
    std::size_t nonfalse = 0;
    for (std::size_t i = 0; i < lits.size() && nonfalse < 2; ++i) {
      if (val_[lits[i]] != -1) std::swap(lits[nonfalse++], lits[i]);
    }
    if (nonfalse < 2) {
      // The clause lives on only as root facts: it is never watched, and no
      // deletion can match it, so it needs no storage.
      if (nonfalse == 0 || !enqueue(lits[0]) || !propagate()) root_conflict_ = true;
      return true;
    }
    // Keeps every cref and every size<<1 header within 32 bits.
    if (arena_.size() + 1 + lits.size() > kMaxArena) return false;
    const auto cref = static_cast<std::uint32_t>(arena_.size());
    arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 1);
    arena_.insert(arena_.end(), lits.begin(), lits.end());
    watches_[lits[0] ^ 1].push_back({cref, lits[1]});
    watches_[lits[1] ^ 1].push_back({cref, lits[0]});
    by_hash_[hash].push_back(cref);
    return true;
  }

  /// Deactivate the oldest active clause whose literal set is `lits`
  /// (canonical), if there is one.
  void erase(const Codes& lits) {
    const auto it = by_hash_.find(hash_lits(lits));
    if (it == by_hash_.end()) return;
    std::vector<std::uint32_t>& crefs = it->second;
    for (const Code c : lits) lit_mark_[c] = 1;
    const auto match = std::find_if(crefs.begin(), crefs.end(), [&](std::uint32_t cref) {
      const Code* const begin = &arena_[cref + 1];
      return (arena_[cref] >> 1) == lits.size() &&
             std::all_of(begin, begin + lits.size(),
                         [&](Code c) { return lit_mark_[c] != 0; });
    });
    for (const Code c : lits) lit_mark_[c] = 0;
    if (match == crefs.end()) return;
    arena_[*match] |= 1;
    crefs.erase(match);
    if (crefs.empty()) by_hash_.erase(it);
  }

  // ---- theory re-derivation ----------------------------------------------
  //
  // While a lemma is checked, lit_mark_ flags the literals of its clause.
  // `G`, the literals the clause claims cannot all hold together, is the
  // negation of that set: g is in G iff lit_mark_[g ^ 1].

  [[nodiscard]] bool in_clause(Code c) const noexcept { return lit_mark_[c] != 0; }

  /// The marked clause contains the negation of `l`, a payload integer that
  /// was never range-checked.
  [[nodiscard]] bool clause_negates(std::int64_t l) const noexcept {
    if (!in_range(l)) return false;
    const Code c = code_of(l) ^ 1;
    return c < lit_mark_.size() && lit_mark_[c] != 0;
  }

  /// Longest origin distances into dist_ over the edges whose guards are
  /// all in G (nodes are implicitly >= 0).  Bellman-Ford; true on a positive
  /// cycle (distances divergent, any bound claim holds vacuously).
  [[nodiscard]] bool longest_paths() {
    dist_.assign(static_cast<std::size_t>(num_nodes_), 0);
    live_.clear();
    for (const Edge& e : edges_) {
      const bool on = std::all_of(e.guards.begin(), e.guards.end(),
                                  [&](Code g) { return in_clause(g ^ 1); });
      if (on) live_.push_back(&e);
    }
    bool changed = true;
    for (std::int64_t round = 0; round <= num_nodes_ && changed; ++round) {
      changed = false;
      for (const Edge* e : live_) {
        const std::int64_t nd = dist_[static_cast<std::size_t>(e->from)] + e->weight;
        if (nd > dist_[static_cast<std::size_t>(e->to)]) {
          dist_[static_cast<std::size_t>(e->to)] = nd;
          changed = true;
        }
      }
    }
    return changed;  // still relaxing after |V| rounds
  }

  /// Weight of the terms of `sum` whose guard the clause negates.
  [[nodiscard]] std::int64_t clause_weight_in_sum(std::size_t sum) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) {
      if (in_clause(guard ^ 1)) total += weight;
    }
    return total;
  }

  /// Weight forfeited when every guard occurring *positively* in the clause
  /// is assumed false (the LL lemma shape: at least one of them must hold).
  [[nodiscard]] std::int64_t clause_weight_forfeited(std::size_t sum) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) {
      if (in_clause(guard)) total += weight;
    }
    return total;
  }

  [[nodiscard]] std::int64_t sum_total(std::size_t sum) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) total += weight;
    return total;
  }

  [[nodiscard]] bool some_feasible_leq(const std::vector<std::int64_t>& p) const {
    const auto& sources =
        opts_.trust_feasible_steps ? feasible_ : opts_.feasible_points;
    for (const auto& q : sources) {
      if (q.size() != p.size()) continue;
      bool leq = true;
      for (std::size_t i = 0; i < q.size() && leq; ++i) leq = q[i] <= p[i];
      if (leq) return true;
    }
    return false;
  }

  /// Re-derive a lower bound of an objective tree under the assumption that
  /// every literal of the (negated) clause holds: leaf bounds come from the
  /// declared sum/edge tables exactly as in the LS/DB lemmas, combinators
  /// fold them monotonically (max for minmax/worst, weighted sum, clamped
  /// big-endian packing for lex — the same arithmetic the solver binds).  A
  /// positive cycle in a difference leaf makes its bound vacuously infinite.
  /// Returns an empty string and writes `out` on success.
  [[nodiscard]] std::string tree_lower_bound(const ObjTree& t, std::int64_t& out) {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    switch (t.kind) {
      case 'L': {
        if (t.id < 0 || static_cast<std::size_t>(t.id) >= sums_.size()) {
          return "unknown sum";
        }
        out = clause_weight_in_sum(static_cast<std::size_t>(t.id));
        return {};
      }
      case 'D': {
        if (t.id < 0 || t.id >= num_nodes_) return "unknown node";
        out = longest_paths() ? kMax : dist_[static_cast<std::size_t>(t.id)];
        return {};
      }
      case 'M': {
        std::int64_t best = std::numeric_limits<std::int64_t>::min();
        for (const ObjTree& c : t.children) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(c, v);
          if (!why.empty()) return why;
          best = std::max(best, v);
        }
        out = best;
        return {};
      }
      case 'W': {
        __int128 acc = 0;
        for (std::size_t i = 0; i < t.children.size(); ++i) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(t.children[i], v);
          if (!why.empty()) return why;
          acc += static_cast<__int128>(t.params[i]) * v;
        }
        out = acc > kMax ? kMax : static_cast<std::int64_t>(acc);
        return {};
      }
      case 'X': {
        // Big-endian packing with per-child clamping to [0, cap]; strides
        // were validated overflow-free at declaration time.
        __int128 acc = 0;
        for (std::size_t i = 0; i < t.children.size(); ++i) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(t.children[i], v);
          if (!why.empty()) return why;
          const std::int64_t cap = t.params[i];
          acc = acc * (static_cast<__int128>(cap) + 1) +
                std::clamp<std::int64_t>(v, 0, cap);
        }
        out = acc > kMax ? kMax : static_cast<std::int64_t>(acc);
        return {};
      }
      default:
        return "objective binding was never declared";
    }
  }

  /// Verify one theory lemma, whose clause is marked in lit_mark_, against
  /// the declared tables.  Returns an empty string on success, the reason
  /// otherwise.
  [[nodiscard]] std::string verify_lemma(std::string_view tag,
                                         const std::vector<std::int64_t>& payload) {
    if (tag == "DC") {
      if (!longest_paths()) return "no positive cycle under the clause guards";
      return {};
    }
    if (tag == "DB") {
      if (payload.size() != 3) return "DB payload must be node/bound/act";
      const std::int64_t node = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (node < 0 || node >= num_nodes_) return "unknown node";
      if (node_bounds_.count({node, bound, act}) == 0) {
        return "node bound was never declared";
      }
      if (act != 0 && !clause_negates(act)) {
        return "clause misses the bound's activation negation";
      }
      if (!longest_paths() && dist_[static_cast<std::size_t>(node)] <= bound) {
        return "guarded longest path does not exceed the bound";
      }
      return {};
    }
    if (tag == "LS") {
      if (payload.size() != 3) return "LS payload must be sum/bound/act";
      const std::int64_t sum = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (sum < 0 || static_cast<std::size_t>(sum) >= sums_.size()) {
        return "unknown sum";
      }
      if (sum_bounds_.count({sum, bound, act}) == 0) {
        return "sum bound was never declared";
      }
      if (act != 0 && !clause_negates(act)) {
        return "clause misses the bound's activation negation";
      }
      if (clause_weight_in_sum(static_cast<std::size_t>(sum)) <= bound) {
        return "negated guards do not exceed the bound";
      }
      return {};
    }
    if (tag == "LL") {
      if (payload.size() != 3) return "LL payload must be sum/bound/act";
      const std::int64_t sum = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (sum < 0 || static_cast<std::size_t>(sum) >= sums_.size()) {
        return "unknown sum";
      }
      if (sum_lower_bounds_.count({sum, bound, act}) == 0) {
        return "sum floor was never declared";
      }
      if (act != 0 && !clause_negates(act)) {
        return "clause misses the floor's activation negation";
      }
      // With every positive clause guard false the sum tops out at
      // total - forfeited; the lemma holds iff that misses the floor.
      const std::size_t s = static_cast<std::size_t>(sum);
      if (sum_total(s) - clause_weight_forfeited(s) >= bound) {
        return "remaining weight still reaches the floor";
      }
      return {};
    }
    if (tag == "DOM") {
      if (payload.empty() ||
          payload[0] != static_cast<std::int64_t>(payload.size()) - 1) {
        return "DOM payload must be k followed by k thresholds";
      }
      const std::vector<std::int64_t> point(payload.begin() + 1, payload.end());
      if (!some_feasible_leq(point)) {
        want_of_points_ = !opts_.trust_feasible_steps;
        return "no certified feasible point at or below the thresholds";
      }
      for (std::size_t i = 0; i < point.size(); ++i) {
        if (point[i] <= 0) continue;  // objectives are >= 0 by construction
        if (i >= objectives_.size() || objectives_[i].kind == 0) {
          return "objective binding was never declared";
        }
        std::int64_t lb = 0;
        const std::string why = tree_lower_bound(objectives_[i], lb);
        if (!why.empty()) return why;
        if (lb < point[i]) {
          return "negated guards do not reach the dominance threshold";
        }
      }
      return {};
    }
    if (tag == "CB") {
      if (payload.size() != 3) return "CB payload must be objective/bound/act";
      const std::int64_t obj = payload[0];
      const std::int64_t bound = payload[1];
      const std::int64_t act = payload[2];
      if (obj < 0 || static_cast<std::size_t>(obj) >= objectives_.size() ||
          objectives_[static_cast<std::size_t>(obj)].kind == 0) {
        return "objective binding was never declared";
      }
      if (comb_bounds_.count({obj, bound, act}) == 0) {
        return "combinator bound was never declared";
      }
      if (act != 0 && !clause_negates(act)) {
        return "clause misses the bound's activation negation";
      }
      std::int64_t lb = 0;
      const std::string why =
          tree_lower_bound(objectives_[static_cast<std::size_t>(obj)], lb);
      if (!why.empty()) return why;
      if (lb <= bound) {
        return "negated guards do not exceed the combinator bound";
      }
      return {};
    }
    return "unknown theory tag";
  }

  // ---- step handlers ------------------------------------------------------

  /// Read the literals up to the terminating 0, in proof order, as codes.
  /// Returns nullptr on success, `unterminated` without the 0, and the
  /// range error when a literal is out of range.
  [[nodiscard]] const char* read_lits(Line& line, Codes& out,
                                      const char* unterminated) {
    out.clear();
    bool all_in_range = true;
    Code max_var = 0;
    std::int64_t v = 0;
    while (line.integer(v)) {
      if (v == 0) {
        if (!all_in_range) return kOutOfRange;
        if (!out.empty()) ensure_var(max_var);
        return nullptr;
      }
      if (!in_range(v)) {
        all_in_range = false;
        continue;
      }
      out.push_back(code_of(v));
      max_var = std::max(max_var, out.back() >> 1);
    }
    return unterminated;
  }

  /// Range-check one declared literal and size the tables for it.
  [[nodiscard]] bool declared_lit(std::int64_t l, Code& out) {
    if (!in_range(l)) return false;
    out = code_of(l);
    ensure_var(out >> 1);
    return true;
  }

  /// Parse one objective-binding term from an O line.  Grammar:
  ///   term := L <sum> | D <node> | X <k> <cap>{k} <term>{k}
  ///         | M <k> <term>{k} | W <k> <weight>{k} <term>{k}
  /// Structural limits mirror the spec validator (depth <= 8, <= 64 nodes);
  /// lex cap products are checked overflow-free so packing arithmetic in
  /// tree_lower_bound cannot wrap.  Returns an empty string on success.
  [[nodiscard]] std::string parse_obj_tree(Line& line, ObjTree& out, int depth,
                                           std::size_t& nodes) {
    if (depth > 8) return "tree too deep";
    if (++nodes > 64) return "tree too large";
    std::string_view what;
    if (!line.word(what)) return "missing term";
    if (what == "L" || what == "D") {
      std::int64_t id = 0;
      if (!line.integer(id) || id < 0) return "malformed leaf";
      out.kind = what[0];
      out.id = id;
      return {};
    }
    if (what != "X" && what != "M" && what != "W") {
      return "unknown term kind";
    }
    out.kind = what[0];
    std::int64_t k = 0;
    if (!line.integer(k) || k < 1 || k > 64) return "malformed arity";
    if (out.kind != 'W' && k < 2) return "combinator needs two children";
    if (out.kind == 'X' || out.kind == 'W') {
      out.params.resize(static_cast<std::size_t>(k));
      __int128 radix = 1;
      for (auto& p : out.params) {
        if (!line.integer(p)) return "malformed parameters";
        if (out.kind == 'X') {
          if (p < 0) return "negative lex cap";
          radix *= static_cast<__int128>(p) + 1;
          if (radix > std::numeric_limits<std::int64_t>::max()) {
            return "lex packing overflows";
          }
        } else if (p < 1) {
          return "weight must be positive";
        }
      }
    }
    out.children.resize(static_cast<std::size_t>(k));
    for (auto& c : out.children) {
      const std::string why = parse_obj_tree(line, c, depth + 1, nodes);
      if (!why.empty()) return why;
    }
    return {};
  }

  // Per-variable bookkeeping bits in var_flags_.
  static constexpr std::uint8_t kAxiom = 1;       // in an axiom or declaration
  static constexpr std::uint8_t kGuard = 2;       // consumed as a replay guard
  static constexpr std::uint8_t kStructural = 4;  // never a pure box activation

  /// Record that the variable of `c` occurs in an axiom or declaration, with
  /// kStructural when it occurs in an input clause, sum term, edge guard
  /// or replay tail.  False iff the variable is a replay guard
  /// — axioms must never mention guard variables or the guard-purity
  /// soundness argument collapses.
  [[nodiscard]] bool note_var(Code c, std::uint8_t flags) {
    std::uint8_t& f = var_flags_[c >> 1];
    if ((f & kGuard) != 0) return false;
    f |= flags;
    return true;
  }

  [[nodiscard]] bool note_vars(const Codes& lits, std::uint8_t flags) {
    return std::all_of(lits.begin(), lits.end(),
                       [&](Code c) { return note_var(c, flags); });
  }

  /// Range-check and record a bound declaration's activation literal (0:
  /// none).  Returns the failure message, or nullptr.
  [[nodiscard]] const char* note_act(std::int64_t act, const char* guard_msg) {
    if (act == 0) return nullptr;
    Code c = 0;
    if (!declared_lit(act, c)) return kOutOfRange;
    if (!note_var(c, kAxiom)) return guard_msg;
    return nullptr;
  }

  /// Record a bound declaration's activation for shard-box extraction.
  /// kind: 0 = sum ceiling (SB), 1 = sum floor (SL), 2 = node bound (NB),
  /// 3 = combinator bound (OB — id is an objective index, not a sum id).
  void note_bound_act(std::int64_t kind, std::int64_t id, std::int64_t bound,
                      std::int64_t act) {
    if (act == 0) return;  // unconditional: part of the declared system
    if (act < 0) {
      // A negative-literal activation blocks the cross-shard
      // model-extension argument; certification refuses the stream.
      result_.unsafe_bounds = true;
      return;
    }
    act_bounds_[code_of(act)].push_back({kind, id, bound});
  }

  /// A verified Unsat conclusion: when its assumptions are all pure box
  /// activations on the shard objective's sum, record the proven interval.
  void maybe_record_shard_box(const Codes& assumptions) {
    const auto obj = static_cast<std::size_t>(opts_.shard_objective);
    // The shard objective must be a *linear leaf*: combinator axes have no
    // single sum whose SB/SL activations could carve a sound interval.
    if (obj >= objectives_.size() || objectives_[obj].kind != 'L' ||
        !objectives_[obj].children.empty()) {
      return;
    }
    const std::int64_t shard_sum = objectives_[obj].id;
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    for (const Code a : assumptions) {
      if ((a & 1) != 0) return;  // negative phase: not a box act
      // Occurs in the system, or is a replay guard.
      if ((var_flags_[a >> 1] & (kStructural | kGuard)) != 0) return;
      const auto it = act_bounds_.find(a);
      if (it == act_bounds_.end()) return;      // activates nothing known
      for (const auto& [kind, id, bound] : it->second) {
        // Only plain sum ceilings/floors on the shard sum qualify; node
        // bounds (kind 2) and combinator bounds (kind 3, id = objective
        // index) disqualify the conclusion as a box.
        if (kind != 0 && kind != 1) return;
        if (id != shard_sum) return;
        if (kind == 0) {
          hi = std::min(hi, bound);
        } else {
          lo = std::max(lo, bound);
        }
      }
    }
    result_.shard_boxes.push_back({lo, hi});
  }

  static constexpr const char* kOutOfRange = "literal out of range";
  static constexpr std::size_t kMaxArena = std::size_t{1} << 31;  // words
  static constexpr const char* kArenaFull = "clause database exceeds 2^31 words";

  CheckOptions opts_;
  CheckResult result_;
  // Stream position: lines replayed so far, the header seen, the first
  // failure met (and whether an admitted point could have averted it), and
  // the head of a line cut by a piece boundary.
  std::size_t line_no_ = 0;
  bool saw_header_ = false;
  bool failed_ = false;
  bool want_of_points_ = false;
  std::string partial_;
  Codes lits_;  // the current step's literals

  std::vector<std::int8_t> val_;  // literal code -> -1/0/+1
  std::vector<Code> trail_;
  std::size_t qhead_ = 0;
  std::vector<std::vector<Watch>> watches_;
  std::vector<std::uint32_t> arena_;
  // Deletion index: hash of the canonical literals -> crefs of the active
  // clauses with that hash, oldest first.
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_hash_;
  bool root_conflict_ = false;
  std::vector<std::uint8_t> lit_mark_;  // literal code -> in the current clause

  std::vector<std::vector<std::pair<Code, std::int64_t>>> sums_;
  std::set<std::array<std::int64_t, 3>> sum_bounds_;
  std::set<std::array<std::int64_t, 3>> sum_lower_bounds_;
  std::int64_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::set<std::array<std::int64_t, 3>> node_bounds_;
  std::vector<ObjTree> objectives_;  // one binding tree per Pareto axis
  std::set<std::array<std::int64_t, 3>> comb_bounds_;
  std::vector<std::vector<std::int64_t>> feasible_;
  std::vector<std::int64_t> dist_;  // longest_paths output
  std::vector<const Edge*> live_;   // longest_paths scratch

  // Guard-purity and shard-box bookkeeping (kAxiom/kGuard/kStructural), and
  // the bound declarations each activation literal switches on.
  std::vector<std::uint8_t> var_flags_;
  std::map<Code, std::vector<std::array<std::int64_t, 3>>> act_bounds_;
};

bool Checker::feed(std::string_view bytes) {
  const char* cursor = bytes.data();
  const char* const end = cursor + bytes.size();
  while (!failed_ && cursor != end) {
    const char* const eol = std::find(cursor, end, '\n');
    if (eol == end) {
      partial_.append(cursor, end);
      break;
    }
    if (partial_.empty()) {
      step(cursor, eol);
    } else {
      partial_.append(cursor, eol);
      step(partial_.data(), partial_.data() + partial_.size());
      partial_.clear();
    }
    cursor = eol + 1;
  }
  return !failed_;
}

CheckResult Checker::finish() {
  if (!failed_ && !partial_.empty()) {
    step(partial_.data(), partial_.data() + partial_.size());
  }
  if (failed_) return std::move(result_);
  if (!saw_header_) {
    ++line_no_;
    fail("empty proof");
  } else if (opts_.require_global_unsat && !result_.concluded_global_unsat) {
    ++line_no_;
    fail("proof never concludes global unsatisfiability");
  } else {
    result_.ok = true;
  }
  return std::move(result_);
}

bool Checker::step(const char* begin, const char* end) {
  Line line(begin, end);
  ++line_no_;

  std::string_view kind;
  if (!line.word(kind)) return true;  // blank line
  if (!saw_header_) {
    std::string_view fmt;
    std::string_view version;
    if (kind != "p" || !line.word(fmt) || fmt != "aspmt" ||
        !line.word(version) || version != "1") {
      return fail("missing or unsupported 'p aspmt 1' header");
    }
    saw_header_ = true;
    return true;
  }

  if (kind == "I" || kind == "L") {
    if (const char* err = read_lits(line, lits_, "unterminated clause")) return fail(err);
    canonicalize(lits_);
    if (kind == "L") {
      if (!rup(lits_)) return fail("learnt clause is not RUP");
      ++result_.learnt_clauses;
    } else {
      if (!note_vars(lits_, kAxiom | kStructural)) {
        return fail("input clause mentions a replay guard variable");
      }
      ++result_.input_clauses;
    }
    if (!install(lits_)) return fail(kArenaFull);
  } else if (kind == "G") {
    if (const char* err = read_lits(line, lits_, "unterminated guarded clause")) {
      return fail(err);
    }
    if (lits_.empty()) return fail("guarded clause without a guard literal");
    const Code guard = lits_.front();
    if ((guard & 1) != 0) return fail("guard literal must be positive");
    if ((var_flags_[guard >> 1] & kAxiom) != 0) {
      return fail("guard variable is not fresh w.r.t. the axioms");
    }
    Codes tail(lits_.begin() + 1, lits_.end());
    for (const Code c : tail) {
      if ((c >> 1) == (guard >> 1)) {
        return fail("guard variable occurs in its own clause tail");
      }
      if (!note_var(c, kAxiom | kStructural)) {
        return fail("guarded clause tail mentions a guard variable");
      }
    }
    var_flags_[guard >> 1] |= kGuard;
    tail.push_back(guard ^ 1);
    canonicalize(tail);
    ++result_.guarded_clauses;
    if (!install(tail)) return fail(kArenaFull);
  } else if (kind == "T") {
    std::string_view tag;
    if (!line.word(tag)) return fail("theory step without tag");
    std::vector<std::int64_t> payload;
    std::string_view tok;
    bool separated = false;
    while (line.word(tok)) {
      if (tok == ";") {
        separated = true;
        break;
      }
      std::int64_t v = 0;
      const auto res = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (res.ec != std::errc{} || res.ptr != tok.data() + tok.size()) {
        return fail("malformed theory payload");
      }
      payload.push_back(v);
    }
    if (!separated) return fail("theory step without ';' separator");
    if (const char* err = read_lits(line, lits_, "unterminated clause")) return fail(err);
    canonicalize(lits_);
    if (!note_vars(lits_, kAxiom)) {
      return fail("theory lemma mentions a replay guard variable");
    }
    for (const Code c : lits_) lit_mark_[c] = 1;
    const std::string why = verify_lemma(tag, payload);
    for (const Code c : lits_) lit_mark_[c] = 0;
    if (!why.empty()) return fail("theory lemma rejected: " + why);
    ++result_.theory_lemmas;
    if (!install(lits_)) return fail(kArenaFull);
  } else if (kind == "D") {
    if (const char* err = read_lits(line, lits_, "unterminated deletion")) {
      return fail(err);
    }
    canonicalize(lits_);
    // The solver stores theory clauses root-simplified, so some deletions
    // have no exact match here; keeping those clauses only strengthens
    // propagation over valid clauses, which stays sound.
    erase(lits_);
    ++result_.deletions;
  } else if (kind == "U") {
    if (const char* err = read_lits(line, lits_, "unterminated conclusion")) {
      return fail(err);
    }
    if (!refutes_assumptions(lits_)) {
      return fail("Unsat conclusion is not supported by the database");
    }
    ++result_.conclusions;
    if (lits_.empty()) result_.concluded_global_unsat = true;
    if (opts_.shard_objective >= 0) maybe_record_shard_box(lits_);
  } else if (kind == "M") {
    // model marker — nothing to verify on the proof side
  } else if (kind == "X") {
    std::int64_t zero = 0;
    if (!line.integer(zero) || zero != 0) {
      return fail("malformed truncation marker");
    }
    result_.truncated = true;
  } else if (kind == "F") {
    std::int64_t k = 0;
    if (!line.integer(k) || k < 0) return fail("malformed feasible point");
    std::vector<std::int64_t> point(static_cast<std::size_t>(k));
    for (auto& v : point) {
      if (!line.integer(v)) return fail("malformed feasible point");
    }
    std::int64_t zero = 0;
    if (!line.integer(zero) || zero != 0) {
      return fail("unterminated feasible point");
    }
    if (!opts_.trust_feasible_steps &&
        std::find(opts_.feasible_points.begin(), opts_.feasible_points.end(),
                  point) == opts_.feasible_points.end()) {
      want_of_points_ = true;
      return fail("feasible point lacks a validated witness");
    }
    feasible_.push_back(std::move(point));
    ++result_.feasible_points;
  } else if (kind == "S") {
    std::int64_t id = 0;
    std::int64_t n = 0;
    if (!line.integer(id) || !line.integer(n) || n < 0 ||
        id != static_cast<std::int64_t>(sums_.size())) {
      return fail("malformed sum definition");
    }
    std::vector<std::pair<Code, std::int64_t>> terms;
    terms.reserve(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) {
      std::int64_t guard = 0;
      std::int64_t weight = 0;
      if (!line.integer(guard) || !line.integer(weight) || guard == 0 ||
          weight < 0) {
        return fail("malformed sum term");
      }
      Code c = 0;
      if (!declared_lit(guard, c)) return fail(kOutOfRange);
      if (!note_var(c, kAxiom | kStructural)) {
        return fail("sum term mentions a replay guard variable");
      }
      terms.emplace_back(c, weight);
    }
    sums_.push_back(std::move(terms));
  } else if (kind == "SB") {
    std::int64_t id = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(id) || !line.integer(bound) || !line.integer(act) ||
        id < 0 || static_cast<std::size_t>(id) >= sums_.size()) {
      return fail("malformed sum bound");
    }
    if (const char* err = note_act(act, "sum bound mentions a replay guard variable")) {
      return fail(err);
    }
    sum_bounds_.insert({id, bound, act});
    note_bound_act(0, id, bound, act);
  } else if (kind == "SL") {
    std::int64_t id = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(id) || !line.integer(bound) || !line.integer(act) ||
        id < 0 || static_cast<std::size_t>(id) >= sums_.size()) {
      return fail("malformed sum floor");
    }
    if (const char* err = note_act(act, "sum floor mentions a replay guard variable")) {
      return fail(err);
    }
    sum_lower_bounds_.insert({id, bound, act});
    note_bound_act(1, id, bound, act);
  } else if (kind == "N") {
    std::int64_t id = 0;
    if (!line.integer(id) || id != num_nodes_) {
      return fail("malformed node definition");
    }
    ++num_nodes_;
  } else if (kind == "E") {
    std::int64_t id = 0;
    Edge e;
    std::int64_t n = 0;
    if (!line.integer(id) || !line.integer(e.from) || !line.integer(e.to) ||
        !line.integer(e.weight) || !line.integer(n) || n < 0 ||
        id != static_cast<std::int64_t>(edges_.size()) || e.from < 0 ||
        e.from >= num_nodes_ || e.to < 0 || e.to >= num_nodes_) {
      return fail("malformed edge definition");
    }
    e.guards.resize(static_cast<std::size_t>(n));
    for (Code& c : e.guards) {
      std::int64_t g = 0;
      if (!line.integer(g) || g == 0) return fail("malformed edge guard");
      if (!declared_lit(g, c)) return fail(kOutOfRange);
      if (!note_var(c, kAxiom | kStructural)) {
        return fail("edge guard mentions a replay guard variable");
      }
    }
    edges_.push_back(std::move(e));
  } else if (kind == "NB") {
    std::int64_t id = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(id) || !line.integer(bound) || !line.integer(act) ||
        id < 0 || id >= num_nodes_) {
      return fail("malformed node bound");
    }
    if (const char* err = note_act(act, "node bound mentions a replay guard variable")) {
      return fail(err);
    }
    node_bounds_.insert({id, bound, act});
    note_bound_act(2, id, bound, act);
  } else if (kind == "O") {
    std::int64_t obj = 0;
    if (!line.integer(obj) || obj < 0) {
      return fail("malformed objective binding");
    }
    ObjTree tree;
    std::size_t nodes = 0;
    const std::string why = parse_obj_tree(line, tree, 0, nodes);
    if (!why.empty()) return fail("malformed objective binding: " + why);
    std::string_view rest;
    if (line.word(rest)) {
      return fail("malformed objective binding: trailing tokens");
    }
    if (objectives_.size() < static_cast<std::size_t>(obj) + 1) {
      objectives_.resize(static_cast<std::size_t>(obj) + 1);
    }
    objectives_[static_cast<std::size_t>(obj)] = std::move(tree);
  } else if (kind == "OB") {
    std::int64_t obj = 0;
    std::int64_t bound = 0;
    std::int64_t act = 0;
    if (!line.integer(obj) || !line.integer(bound) || !line.integer(act) ||
        obj < 0 || static_cast<std::size_t>(obj) >= objectives_.size() ||
        objectives_[static_cast<std::size_t>(obj)].kind == 0) {
      return fail("combinator bound on an undeclared objective");
    }
    if (const char* err =
            note_act(act, "combinator bound mentions a replay guard variable")) {
      return fail(err);
    }
    comb_bounds_.insert({obj, bound, act});
    note_bound_act(3, obj, bound, act);
  } else {
    return fail("unknown step kind '" + std::string(kind) + "'");
  }
  return true;
}

}  // namespace

class ProofChecker::Impl : public Checker {
 public:
  using Checker::Checker;
};

ProofChecker::ProofChecker(CheckOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

ProofChecker::~ProofChecker() = default;

void ProofChecker::admit(std::vector<std::int64_t> point) {
  impl_->admit(std::move(point));
}

bool ProofChecker::feed(std::string_view bytes) { return impl_->feed(bytes); }

CheckResult ProofChecker::finish() { return impl_->finish(); }

bool ProofChecker::failed_for_want_of_points() const noexcept {
  return impl_->failed_for_want_of_points();
}

CheckResult check_proof(std::string_view proof, const CheckOptions& options) {
  ProofChecker checker(options);
  checker.feed(proof);
  return checker.finish();
}

}  // namespace aspmt::cert
