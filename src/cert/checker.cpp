#include "cert/checker.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

namespace aspmt::cert {
namespace {

using Lits = std::vector<std::int64_t>;

// Sort by variable, negative phase first — makes duplicates and
// complementary pairs adjacent and gives a canonical deletion key.
struct LitLess {
  bool operator()(std::int64_t a, std::int64_t b) const noexcept {
    const std::int64_t va = std::abs(a);
    const std::int64_t vb = std::abs(b);
    if (va != vb) return va < vb;
    return a < b;
  }
};

void canonicalize(Lits& lits) {
  std::sort(lits.begin(), lits.end(), LitLess{});
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
}

[[nodiscard]] bool is_tautology(const Lits& lits) {
  for (std::size_t i = 0; i + 1 < lits.size(); ++i) {
    if (lits[i] == -lits[i + 1]) return true;
  }
  return false;
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
  Lits guards;  // all must be true for the edge to apply
};

struct Rule {
  std::int64_t head = 0;
  std::int64_t body = 0;
  Lits pos_heads;  // head literals of the positive body atoms
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

/// The whole verification state: clause database with watched-literal unit
/// propagation plus the declared theory tables.
class Checker {
 public:
  explicit Checker(const CheckOptions& options) : opts_(options) {}

  CheckResult run(std::string_view proof);

 private:
  // ---- unit propagation ---------------------------------------------------

  [[nodiscard]] static std::size_t lit_index(std::int64_t l) noexcept {
    return 2 * static_cast<std::size_t>(std::abs(l) - 1) + (l < 0 ? 1 : 0);
  }

  void ensure_var(std::int64_t l) {
    const auto v = static_cast<std::size_t>(std::abs(l));
    if (assign_.size() < v + 1) assign_.resize(v + 1, 0);
    if (watch_.size() < 2 * v) watch_.resize(2 * v);
  }

  [[nodiscard]] int value(std::int64_t l) const noexcept {
    const int a = assign_[static_cast<std::size_t>(std::abs(l))];
    return l < 0 ? -a : a;
  }

  void assign(std::int64_t l) {
    assign_[static_cast<std::size_t>(std::abs(l))] =
        static_cast<std::int8_t>(l < 0 ? -1 : 1);
    trail_.push_back(l);
  }

  /// False iff `l` is already false.
  bool enqueue(std::int64_t l) {
    const int v = value(l);
    if (v == 1) return true;
    if (v == -1) return false;
    assign(l);
    return true;
  }

  bool propagate() {
    while (qhead_ < trail_.size()) {
      const std::int64_t p = trail_[qhead_++];
      auto& wl = watch_[lit_index(-p)];
      std::size_t out = 0;
      for (std::size_t i = 0; i < wl.size(); ++i) {
        const std::uint32_t ci = wl[i];
        if (!active_[ci]) continue;  // deleted: lazily drop from the list
        Lits& ls = clause_lits_[ci];
        if (ls[0] == -p) std::swap(ls[0], ls[1]);
        if (value(ls[0]) == 1) {
          wl[out++] = ci;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < ls.size(); ++k) {
          if (value(ls[k]) != -1) {
            std::swap(ls[1], ls[k]);
            watch_[lit_index(ls[1])].push_back(ci);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        wl[out++] = ci;  // clause stays unit/conflicting on ls[0]
        if (value(ls[0]) == -1) {
          for (++i; i < wl.size(); ++i) wl[out++] = wl[i];
          wl.resize(out);
          return false;
        }
        assign(ls[0]);
      }
      wl.resize(out);
    }
    return true;
  }

  void undo_to(std::size_t save) {
    while (trail_.size() > save) {
      assign_[static_cast<std::size_t>(std::abs(trail_.back()))] = 0;
      trail_.pop_back();
    }
    qhead_ = std::min(qhead_, save);
  }

  /// RUP: asserting the negation of every clause literal propagates to a
  /// conflict (or the clause is already satisfied/tautological at root).
  [[nodiscard]] bool rup(const Lits& clause) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool conflict = false;
    bool satisfied = false;
    for (const std::int64_t l : clause) {
      ensure_var(l);
      const int v = value(l);
      if (v == 1) {  // root unit (or a complementary clause literal)
        satisfied = true;
        break;
      }
      if (v == -1) continue;
      assign(-l);
    }
    if (!satisfied) conflict = !propagate();
    undo_to(save);
    return conflict || satisfied;
  }

  /// The clause set is contradictory once all `assumptions` are asserted.
  [[nodiscard]] bool refutes_assumptions(const Lits& assumptions) {
    if (root_conflict_) return true;
    const std::size_t save = trail_.size();
    bool conflict = false;
    for (const std::int64_t a : assumptions) {
      ensure_var(a);
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
  /// fixpoint.  `lits` must be canonical.
  void install(Lits lits) {
    if (root_conflict_ || is_tautology(lits)) return;
    for (const std::int64_t l : lits) ensure_var(l);
    if (lits.empty()) {
      root_conflict_ = true;
      return;
    }
    const std::uint32_t id = static_cast<std::uint32_t>(clause_lits_.size());
    by_lits_[lits].push_back(id);
    // Pick two non-false watches; fewer mean the clause is unit or false
    // under the root assignment right away.
    std::size_t nonfalse = 0;
    for (std::size_t i = 0; i < lits.size() && nonfalse < 2; ++i) {
      if (value(lits[i]) != -1) std::swap(lits[nonfalse++], lits[i]);
    }
    const bool watchable = nonfalse >= 2;
    if (!watchable) {
      if (nonfalse == 0) {
        root_conflict_ = true;
      } else if (!enqueue(lits[0]) || !propagate()) {
        root_conflict_ = true;
      }
    }
    clause_lits_.push_back(std::move(lits));
    active_.push_back(watchable);  // unit/false clauses live on as root facts
    if (watchable) {
      watch_[lit_index(clause_lits_[id][0])].push_back(id);
      watch_[lit_index(clause_lits_[id][1])].push_back(id);
    }
  }

  // ---- theory re-derivation ----------------------------------------------

  /// Longest origin distances over the edges whose guards are all in `G`
  /// (nodes are implicitly >= 0).  Bellman-Ford; `cycle` reports a positive
  /// cycle (distances divergent, any bound claim holds vacuously).
  void longest_paths(const std::set<std::int64_t>& G, std::vector<std::int64_t>& dist,
                     bool& cycle) const {
    dist.assign(static_cast<std::size_t>(num_nodes_), 0);
    cycle = false;
    std::vector<const Edge*> live;
    for (const Edge& e : edges_) {
      const bool on = std::all_of(e.guards.begin(), e.guards.end(),
                                  [&](std::int64_t g) { return G.count(g) != 0; });
      if (on) live.push_back(&e);
    }
    bool changed = true;
    for (std::int64_t round = 0; round <= num_nodes_ && changed; ++round) {
      changed = false;
      for (const Edge* e : live) {
        const std::int64_t nd = dist[static_cast<std::size_t>(e->from)] + e->weight;
        if (nd > dist[static_cast<std::size_t>(e->to)]) {
          dist[static_cast<std::size_t>(e->to)] = nd;
          changed = true;
        }
      }
    }
    cycle = changed;  // still relaxing after |V| rounds
  }

  [[nodiscard]] std::int64_t clause_weight_in_sum(
      std::size_t sum, const std::set<std::int64_t>& clause_set) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) {
      if (clause_set.count(-guard) != 0) total += weight;
    }
    return total;
  }

  /// Weight forfeited when every guard occurring *positively* in the clause
  /// is assumed false (the LL lemma shape: at least one of them must hold).
  [[nodiscard]] std::int64_t clause_weight_forfeited(
      std::size_t sum, const std::set<std::int64_t>& clause_set) const {
    std::int64_t total = 0;
    for (const auto& [guard, weight] : sums_[sum]) {
      if (clause_set.count(guard) != 0) total += weight;
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
  [[nodiscard]] std::string tree_lower_bound(
      const ObjTree& t, const std::set<std::int64_t>& G,
      const std::set<std::int64_t>& clause_set, std::int64_t& out) const {
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    switch (t.kind) {
      case 'L': {
        if (t.id < 0 || static_cast<std::size_t>(t.id) >= sums_.size()) {
          return "unknown sum";
        }
        out = clause_weight_in_sum(static_cast<std::size_t>(t.id), clause_set);
        return {};
      }
      case 'D': {
        if (t.id < 0 || t.id >= num_nodes_) return "unknown node";
        std::vector<std::int64_t> dist;
        bool cycle = false;
        longest_paths(G, dist, cycle);
        out = cycle ? kMax : dist[static_cast<std::size_t>(t.id)];
        return {};
      }
      case 'M': {
        std::int64_t best = std::numeric_limits<std::int64_t>::min();
        for (const ObjTree& c : t.children) {
          std::int64_t v = 0;
          const std::string why = tree_lower_bound(c, G, clause_set, v);
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
          const std::string why = tree_lower_bound(t.children[i], G, clause_set, v);
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
          const std::string why = tree_lower_bound(t.children[i], G, clause_set, v);
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

  /// Verify one theory lemma against the declared tables.  Returns an empty
  /// string on success, the reason otherwise.
  [[nodiscard]] std::string verify_lemma(std::string_view tag,
                                         const std::vector<std::int64_t>& payload,
                                         const Lits& clause) {
    std::set<std::int64_t> clause_set(clause.begin(), clause.end());
    // G: literals the clause claims cannot all hold together.
    std::set<std::int64_t> G;
    for (const std::int64_t l : clause) G.insert(-l);

    if (tag == "DC") {
      std::vector<std::int64_t> dist;
      bool cycle = false;
      longest_paths(G, dist, cycle);
      if (!cycle) return "no positive cycle under the clause guards";
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
      if (act != 0 && clause_set.count(-act) == 0) {
        return "clause misses the bound's activation negation";
      }
      std::vector<std::int64_t> dist;
      bool cycle = false;
      longest_paths(G, dist, cycle);
      if (!cycle && dist[static_cast<std::size_t>(node)] <= bound) {
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
      if (act != 0 && clause_set.count(-act) == 0) {
        return "clause misses the bound's activation negation";
      }
      if (clause_weight_in_sum(static_cast<std::size_t>(sum), clause_set) <= bound) {
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
      if (act != 0 && clause_set.count(-act) == 0) {
        return "clause misses the floor's activation negation";
      }
      // With every positive clause guard false the sum tops out at
      // total - forfeited; the lemma holds iff that misses the floor.
      const std::size_t s = static_cast<std::size_t>(sum);
      if (sum_total(s) - clause_weight_forfeited(s, clause_set) >= bound) {
        return "remaining weight still reaches the floor";
      }
      return {};
    }
    if (tag == "UF") {
      if (payload.empty()) return "UF payload must list the unfounded set";
      std::set<std::int64_t> unfounded(payload.begin(), payload.end());
      bool negated_member = false;
      for (const std::int64_t u : unfounded) {
        if (clause_set.count(-u) != 0) {
          negated_member = true;
          break;
        }
      }
      if (!negated_member) return "clause negates no unfounded atom";
      for (const Rule& r : rules_) {
        if (unfounded.count(r.head) == 0) continue;
        const bool external =
            std::none_of(r.pos_heads.begin(), r.pos_heads.end(),
                         [&](std::int64_t h) { return unfounded.count(h) != 0; });
        if (external && clause_set.count(r.body) == 0) {
          return "clause misses an external support body";
        }
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
        return "no certified feasible point at or below the thresholds";
      }
      for (std::size_t i = 0; i < point.size(); ++i) {
        if (point[i] <= 0) continue;  // objectives are >= 0 by construction
        if (i >= objectives_.size() || objectives_[i].kind == 0) {
          return "objective binding was never declared";
        }
        std::int64_t lb = 0;
        const std::string why =
            tree_lower_bound(objectives_[i], G, clause_set, lb);
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
      if (act != 0 && clause_set.count(-act) == 0) {
        return "clause misses the bound's activation negation";
      }
      std::int64_t lb = 0;
      const std::string why = tree_lower_bound(
          objectives_[static_cast<std::size_t>(obj)], G, clause_set, lb);
      if (!why.empty()) return why;
      if (lb <= bound) {
        return "negated guards do not exceed the combinator bound";
      }
      return {};
    }
    return "unknown theory tag";
  }

  // ---- step handlers ------------------------------------------------------

  [[nodiscard]] bool read_lits(Line& line, Lits& out) {
    out.clear();
    std::int64_t v = 0;
    while (line.integer(v)) {
      if (v == 0) return true;
      out.push_back(v);
    }
    return false;  // missing terminator
  }

  /// Parse one objective-binding term from an O line.  Grammar:
  ///   term := L <sum> | D <node> | X <k> <cap>{k} <term>{k}
  ///         | M <k> <term>{k} | W <k> <weight>{k} <term>{k} | V <k> <term>{k}
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

  /// Record that `lit_or_var`'s variable occurs in an axiom or declaration.
  /// False iff the variable is a replay guard — axioms must never mention
  /// guard variables or the guard-purity soundness argument collapses.
  [[nodiscard]] bool note_axiom_var(std::int64_t lit_or_var) {
    const std::int64_t v = std::abs(lit_or_var);
    if (v == 0) return true;
    if (guard_vars_.count(v) != 0) return false;
    axiom_vars_.insert(v);
    return true;
  }

  [[nodiscard]] bool note_axiom_lits(const Lits& lits) {
    for (const std::int64_t l : lits) {
      if (!note_axiom_var(l)) return false;
    }
    return true;
  }

  /// Like note_axiom_var, but additionally marks the variable *structural*:
  /// it occurs in an input clause, sum term, edge guard, or program rule, so
  /// it can never serve as a pure shard-box activation.
  [[nodiscard]] bool note_structural_var(std::int64_t lit_or_var) {
    if (!note_axiom_var(lit_or_var)) return false;
    if (lit_or_var != 0) structural_vars_.insert(std::abs(lit_or_var));
    return true;
  }

  [[nodiscard]] bool note_structural_lits(const Lits& lits) {
    for (const std::int64_t l : lits) {
      if (!note_structural_var(l)) return false;
    }
    return true;
  }

  /// Record a bound declaration's activation for shard-box extraction.
  /// kind: 0 = sum ceiling (SB), 1 = sum floor (SL), 2 = node bound (NB),
  /// 3 = combinator bound (OB — id is an objective index, not a sum id).
  void note_bound_act(std::int64_t kind, std::int64_t id, std::int64_t bound,
                      std::int64_t act) {
    if (act <= 0) {
      // Unconditional (or negative-literal) bounds block the cross-shard
      // model-extension argument; merged certification refuses the stream.
      result_.unsafe_bounds = true;
      return;
    }
    act_bounds_[act].push_back({kind, id, bound});
  }

  /// A verified Unsat conclusion: when its assumptions are all pure box
  /// activations on the shard objective's sum, record the proven interval.
  void maybe_record_shard_box(const Lits& assumptions) {
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
    for (const std::int64_t a : assumptions) {
      if (a <= 0) return;                       // negative phase: not a box act
      if (structural_vars_.count(a) != 0) return;  // occurs in the system
      if (guard_vars_.count(a) != 0) return;       // replay guard
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

  CheckOptions opts_;
  CheckResult result_;

  std::vector<std::int8_t> assign_;  // var -> -1/0/+1
  std::vector<std::int64_t> trail_;
  std::size_t qhead_ = 0;
  std::vector<std::vector<std::uint32_t>> watch_;
  std::vector<Lits> clause_lits_;
  std::vector<char> active_;
  std::map<Lits, std::vector<std::uint32_t>> by_lits_;
  bool root_conflict_ = false;

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> sums_;
  std::set<std::array<std::int64_t, 3>> sum_bounds_;
  std::set<std::array<std::int64_t, 3>> sum_lower_bounds_;
  std::int64_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  std::set<std::array<std::int64_t, 3>> node_bounds_;
  std::vector<ObjTree> objectives_;  // one binding tree per Pareto axis
  std::set<std::array<std::int64_t, 3>> comb_bounds_;
  std::vector<Rule> rules_;
  std::vector<std::vector<std::int64_t>> feasible_;

  // Guard-purity bookkeeping for `G` replay axioms: variables seen in any
  // axiom/declaration vs. variables consumed as replay guards.
  std::set<std::int64_t> axiom_vars_;
  std::set<std::int64_t> guard_vars_;
  // Shard-box bookkeeping: variables with structural occurrences, and the
  // bound declarations each activation literal switches on.
  std::set<std::int64_t> structural_vars_;
  std::map<std::int64_t, std::vector<std::array<std::int64_t, 3>>> act_bounds_;
};

CheckResult Checker::run(std::string_view proof) {
  std::size_t line_no = 0;
  bool saw_header = false;
  auto fail = [&](std::string_view what) {
    result_.ok = false;
    result_.error = "line " + std::to_string(line_no) + ": " + std::string(what);
    return result_;
  };

  const char* cursor = proof.data();
  const char* const end = proof.data() + proof.size();
  Lits lits;
  while (cursor < end) {
    const char* eol = std::find(cursor, end, '\n');
    Line line(cursor, eol);
    cursor = eol == end ? end : eol + 1;
    ++line_no;

    std::string_view kind;
    if (!line.word(kind)) continue;  // blank line
    if (!saw_header) {
      std::string_view fmt;
      std::string_view version;
      if (kind != "p" || !line.word(fmt) || fmt != "aspmt" ||
          !line.word(version) || version != "1") {
        return fail("missing or unsupported 'p aspmt 1' header");
      }
      saw_header = true;
      continue;
    }

    if (kind == "I" || kind == "L") {
      if (!read_lits(line, lits)) return fail("unterminated clause");
      canonicalize(lits);
      if (kind == "L") {
        if (!rup(lits)) return fail("learnt clause is not RUP");
        ++result_.learnt_clauses;
      } else {
        if (!note_structural_lits(lits)) {
          return fail("input clause mentions a replay guard variable");
        }
        ++result_.input_clauses;
      }
      install(lits);
    } else if (kind == "G") {
      if (!read_lits(line, lits)) return fail("unterminated guarded clause");
      if (lits.empty()) return fail("guarded clause without a guard literal");
      const std::int64_t guard = lits.front();
      if (guard <= 0) return fail("guard literal must be positive");
      if (axiom_vars_.count(guard) != 0) {
        return fail("guard variable is not fresh w.r.t. the axioms");
      }
      Lits tail(lits.begin() + 1, lits.end());
      for (const std::int64_t l : tail) {
        const std::int64_t v = std::abs(l);
        if (v == guard) {
          return fail("guard variable occurs in its own clause tail");
        }
        if (guard_vars_.count(v) != 0) {
          return fail("guarded clause tail mentions a guard variable");
        }
        axiom_vars_.insert(v);
        structural_vars_.insert(v);
      }
      guard_vars_.insert(guard);
      tail.push_back(-guard);
      canonicalize(tail);
      ++result_.guarded_clauses;
      install(std::move(tail));
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
      if (!read_lits(line, lits)) return fail("unterminated clause");
      canonicalize(lits);
      if (!note_axiom_lits(lits)) {
        return fail("theory lemma mentions a replay guard variable");
      }
      const std::string why = verify_lemma(tag, payload, lits);
      if (!why.empty()) return fail("theory lemma rejected: " + why);
      ++result_.theory_lemmas;
      install(lits);
    } else if (kind == "D") {
      if (!read_lits(line, lits)) return fail("unterminated deletion");
      canonicalize(lits);
      // The solver stores theory clauses root-simplified, so some deletions
      // have no exact match here; keeping those clauses only strengthens
      // propagation over valid clauses, which stays sound.
      const auto it = by_lits_.find(lits);
      if (it != by_lits_.end()) {
        for (const std::uint32_t id : it->second) {
          if (active_[id]) {
            active_[id] = 0;
            break;
          }
        }
      }
      ++result_.deletions;
    } else if (kind == "U") {
      if (!read_lits(line, lits)) return fail("unterminated conclusion");
      if (!refutes_assumptions(lits)) {
        return fail("Unsat conclusion is not supported by the database");
      }
      ++result_.conclusions;
      if (lits.empty()) result_.concluded_global_unsat = true;
      if (opts_.shard_objective >= 0) maybe_record_shard_box(lits);
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
      std::vector<std::pair<std::int64_t, std::int64_t>> terms;
      terms.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t guard = 0;
        std::int64_t weight = 0;
        if (!line.integer(guard) || !line.integer(weight) || guard == 0 ||
            weight < 0) {
          return fail("malformed sum term");
        }
        if (!note_structural_var(guard)) {
          return fail("sum term mentions a replay guard variable");
        }
        terms.emplace_back(guard, weight);
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
      if (!note_axiom_var(act)) {
        return fail("sum bound mentions a replay guard variable");
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
      if (!note_axiom_var(act)) {
        return fail("sum floor mentions a replay guard variable");
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
      for (auto& g : e.guards) {
        if (!line.integer(g) || g == 0) return fail("malformed edge guard");
        if (!note_structural_var(g)) {
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
      if (!note_axiom_var(act)) {
        return fail("node bound mentions a replay guard variable");
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
      if (!note_axiom_var(act)) {
        return fail("combinator bound mentions a replay guard variable");
      }
      comb_bounds_.insert({obj, bound, act});
      note_bound_act(3, obj, bound, act);
    } else if (kind == "PR") {
      Rule r;
      std::int64_t n = 0;
      if (!line.integer(r.head) || r.head == 0 || !line.integer(r.body) ||
          r.body == 0 || !line.integer(n) || n < 0) {
        return fail("malformed program rule");
      }
      r.pos_heads.resize(static_cast<std::size_t>(n));
      for (auto& h : r.pos_heads) {
        if (!line.integer(h) || h == 0) return fail("malformed program rule");
      }
      if (!note_structural_var(r.head) || !note_structural_var(r.body) ||
          !note_structural_lits(r.pos_heads)) {
        return fail("program rule mentions a replay guard variable");
      }
      rules_.push_back(std::move(r));
    } else {
      return fail("unknown step kind '" + std::string(kind) + "'");
    }
  }

  if (!saw_header) {
    ++line_no;
    return fail("empty proof");
  }
  if (opts_.require_global_unsat && !result_.concluded_global_unsat) {
    ++line_no;
    return fail("proof never concludes global unsatisfiability");
  }
  result_.ok = true;
  return result_;
}

}  // namespace

CheckResult check_proof(std::string_view proof, const CheckOptions& options) {
  Checker checker(options);
  return checker.run(proof);
}

}  // namespace aspmt::cert
