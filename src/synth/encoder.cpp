#include "synth/encoder.hpp"

#include <cassert>
#include <limits>
#include <map>
#include <utility>

#include "asp/cardinality.hpp"

namespace aspmt::synth {

namespace {

using asp::Atom;
using asp::BodyLit;
using asp::Lit;
using asp::neg;
using asp::pos;

std::string atom_name(const char* functor, std::initializer_list<std::string> args) {
  std::string s = functor;
  s += '(';
  bool first = true;
  for (const auto& a : args) {
    if (!first) s += ',';
    s += a;
    first = false;
  }
  s += ')';
  return s;
}

}  // namespace

Encoding encode(const Specification& spec, asp::Solver& solver,
                theory::LinearSumPropagator& linear,
                theory::DifferencePropagator& dl,
                const EncodeOptions& options) {
  spec.require_valid();
  Encoding enc;
  const auto& tasks = spec.tasks();
  const auto& msgs = spec.messages();
  const auto& res = spec.resources();
  const auto& links = spec.links();
  const std::size_t T = tasks.size();
  const std::size_t M = msgs.size();
  const std::size_t R = res.size();
  const std::size_t L = links.size();
  const std::uint32_t H = spec.effective_max_hops();
  enc.hops = H;
  const auto dist = spec.hop_distances();

  asp::Program& prog = enc.program;

  // ---- binding atoms -----------------------------------------------------
  enc.bind_atom.resize(T);
  for (TaskId t = 0; t < T; ++t) {
    for (const std::size_t mi : spec.mappings_of(t)) {
      const MappingOption& o = spec.mappings()[mi];
      const Atom a = prog.new_atom(
          atom_name("bind", {tasks[t].name, res[o.resource].name}));
      prog.choice_rule(a);
      enc.bind_atom[t].push_back(a);
    }
  }

  // Candidate resources per task.
  std::vector<std::vector<char>> task_res(T, std::vector<char>(R, 0));
  for (const MappingOption& o : spec.mappings()) task_res[o.task][o.resource] = 1;

  // ---- routing -----------------------------------------------------------
  enc.head_atom.assign(M, {});
  enc.step_atom.assign(M, {});
  enc.arrived_atom.assign(M, {});
  enc.arrived_acc_atom.assign(M, {});

  for (MessageId m = 0; m < M; ++m) {
    const Message& msg = msgs[m];
    enc.head_atom[m].assign(H + 1, std::vector<Atom>(R, Encoding::kNoAtom));
    enc.step_atom[m].assign(H + 1, std::vector<Atom>(L, Encoding::kNoAtom));
    enc.arrived_atom[m].assign(H + 1, Encoding::kNoAtom);
    enc.arrived_acc_atom[m].assign(H + 1, Encoding::kNoAtom);

    // Reachability pruning: min hop distance from any source candidate and
    // to any destination candidate.
    std::vector<std::uint32_t> from_src(R, Specification::kUnreachable);
    std::vector<std::uint32_t> to_dst(R, Specification::kUnreachable);
    for (const std::size_t mi : spec.mappings_of(msg.src)) {
      const ResourceId s = spec.mappings()[mi].resource;
      for (ResourceId r = 0; r < R; ++r) {
        from_src[r] = std::min(from_src[r], dist[s][r]);
      }
    }
    for (const std::size_t mi : spec.mappings_of(msg.dst)) {
      const ResourceId d = spec.mappings()[mi].resource;
      for (ResourceId r = 0; r < R; ++r) {
        to_dst[r] = std::min(to_dst[r], dist[r][d]);
      }
    }
    auto feasible = [&](std::uint32_t h, ResourceId r) {
      return from_src[r] != Specification::kUnreachable && from_src[r] <= h &&
             to_dst[r] != Specification::kUnreachable && to_dst[r] <= H - h;
    };

    // arrived-accumulator atoms exist for every hop (atoms without rules are
    // simply false, which is exactly the intended semantics).
    for (std::uint32_t h = 0; h <= H; ++h) {
      enc.arrived_acc_atom[m][h] = prog.new_atom(
          atom_name("arrived_by", {msg.name, std::to_string(h)}));
    }

    // Hop 0: the head starts at the source task's resource.
    for (std::size_t i = 0; i < spec.mappings_of(msg.src).size(); ++i) {
      const ResourceId r = spec.mappings()[spec.mappings_of(msg.src)[i]].resource;
      if (!feasible(0, r)) continue;
      Atom& head = enc.head_atom[m][0][r];
      if (head == Encoding::kNoAtom) {
        head = prog.new_atom(
            atom_name("head", {msg.name, "0", res[r].name}));
      }
      prog.rule(head, {pos(enc.bind_atom[msg.src][i])});
    }

    // Hops 1..H: guarded steps along links.
    for (std::uint32_t h = 1; h <= H; ++h) {
      for (ResourceId r = 0; r < R; ++r) {
        if (enc.head_atom[m][h - 1][r] == Encoding::kNoAtom) continue;
        for (const LinkId l : spec.links_from(r)) {
          const ResourceId r2 = links[l].to;
          if (!feasible(h, r2)) continue;
          const Atom step = prog.new_atom(atom_name(
              "step", {msg.name, std::to_string(h), res[r].name, res[r2].name}));
          prog.choice_rule(step, {pos(enc.head_atom[m][h - 1][r]),
                                  neg(enc.arrived_acc_atom[m][h - 1])});
          enc.step_atom[m][h][l] = step;
          Atom& head = enc.head_atom[m][h][r2];
          if (head == Encoding::kNoAtom) {
            head = prog.new_atom(atom_name(
                "head", {msg.name, std::to_string(h), res[r2].name}));
          }
          prog.rule(head, {pos(step)});
        }
      }
    }

    // Arrival: the head sits on the resource the destination task is bound
    // to.  arrived(m,h) is derived, never guessed.
    for (std::uint32_t h = 0; h <= H; ++h) {
      for (std::size_t i = 0; i < spec.mappings_of(msg.dst).size(); ++i) {
        const ResourceId r = spec.mappings()[spec.mappings_of(msg.dst)[i]].resource;
        if (enc.head_atom[m][h][r] == Encoding::kNoAtom) continue;
        Atom& arr = enc.arrived_atom[m][h];
        if (arr == Encoding::kNoAtom) {
          arr = prog.new_atom(
              atom_name("arrived", {msg.name, std::to_string(h)}));
        }
        prog.rule(arr, {pos(enc.head_atom[m][h][r]),
                        pos(enc.bind_atom[msg.dst][i])});
      }
      if (enc.arrived_atom[m][h] != Encoding::kNoAtom) {
        prog.rule(enc.arrived_acc_atom[m][h], {pos(enc.arrived_atom[m][h])});
      }
      if (h > 0) {
        prog.rule(enc.arrived_acc_atom[m][h],
                  {pos(enc.arrived_acc_atom[m][h - 1])});
      }
    }

    // Every message must arrive within the hop bound.
    prog.integrity({neg(enc.arrived_acc_atom[m][H])});

    // Simple walks: no resource is visited twice.
    for (ResourceId r = 0; r < R; ++r) {
      for (std::uint32_t h1 = 0; h1 <= H; ++h1) {
        if (enc.head_atom[m][h1][r] == Encoding::kNoAtom) continue;
        for (std::uint32_t h2 = h1 + 1; h2 <= H; ++h2) {
          if (enc.head_atom[m][h2][r] == Encoding::kNoAtom) continue;
          prog.integrity({pos(enc.head_atom[m][h1][r]),
                          pos(enc.head_atom[m][h2][r])});
        }
      }
    }
  }

  // ---- allocation --------------------------------------------------------
  enc.alloc_atom.resize(R);
  for (ResourceId r = 0; r < R; ++r) {
    enc.alloc_atom[r] = prog.new_atom(atom_name("alloc", {res[r].name}));
  }
  for (TaskId t = 0; t < T; ++t) {
    for (std::size_t i = 0; i < spec.mappings_of(t).size(); ++i) {
      const ResourceId r = spec.mappings()[spec.mappings_of(t)[i]].resource;
      prog.rule(enc.alloc_atom[r], {pos(enc.bind_atom[t][i])});
    }
  }
  for (MessageId m = 0; m < M; ++m) {
    for (std::uint32_t h = 0; h <= H; ++h) {
      for (ResourceId r = 0; r < R; ++r) {
        if (enc.head_atom[m][h][r] != Encoding::kNoAtom) {
          prog.rule(enc.alloc_atom[r], {pos(enc.head_atom[m][h][r])});
        }
      }
    }
  }

  // ---- binding-pair floors -------------------------------------------------
  // Once both endpoints of a message are bound, its communication must cost
  // at least the cheapest path between the two resources — in delay and in
  // energy — regardless of the route eventually chosen.  These floors give
  // partial assignment evaluation teeth *before* any routing decision:
  //  * copair atoms guard minimal-communication-energy terms,
  //  * guarded difference-logic edges carry minimal end-to-end delays.
  // Pairs that cannot be connected within the hop bound are forbidden
  // outright, floors or not.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  auto weighted_apsp = [&](auto link_weight) {
    std::vector<std::vector<std::int64_t>> d(R, std::vector<std::int64_t>(R, kInf));
    for (ResourceId r = 0; r < R; ++r) d[r][r] = 0;
    for (const Link& l : links) {
      d[l.from][l.to] = std::min(d[l.from][l.to], link_weight(l));
    }
    for (ResourceId k = 0; k < R; ++k) {
      for (ResourceId i = 0; i < R; ++i) {
        for (ResourceId j = 0; j < R; ++j) {
          if (d[i][k] + d[k][j] < d[i][j]) d[i][j] = d[i][k] + d[k][j];
        }
      }
    }
    return d;
  };
  const auto min_delay = weighted_apsp([](const Link& l) { return l.hop_delay; });
  const auto min_energy = weighted_apsp([](const Link& l) { return l.hop_energy; });

  struct FloorTerm {
    asp::Atom copair;
    std::int64_t weight;
  };
  std::vector<FloorTerm> floor_terms;
  struct FloorEdge {
    TaskId src;
    TaskId dst;
    asp::Atom bind_src;
    asp::Atom bind_dst;
    std::int64_t weight;
  };
  std::vector<FloorEdge> floor_edges;

  for (MessageId m = 0; m < M; ++m) {
    const Message& msg = msgs[m];
    std::map<std::pair<ResourceId, ResourceId>, asp::Atom> copair_of;
    for (std::size_t i = 0; i < spec.mappings_of(msg.src).size(); ++i) {
      const ResourceId r1 = spec.mappings()[spec.mappings_of(msg.src)[i]].resource;
      const std::int64_t w1 = spec.mappings()[spec.mappings_of(msg.src)[i]].wcet;
      for (std::size_t j = 0; j < spec.mappings_of(msg.dst).size(); ++j) {
        const ResourceId r2 = spec.mappings()[spec.mappings_of(msg.dst)[j]].resource;
        const Atom b1 = enc.bind_atom[msg.src][i];
        const Atom b2 = enc.bind_atom[msg.dst][j];
        if (dist[r1][r2] == Specification::kUnreachable || dist[r1][r2] > H) {
          // This endpoint combination can never deliver the message: a
          // plain constraint, not a floor, so it holds with floors off too.
          prog.integrity({pos(b1), pos(b2)});
          continue;
        }
        if (!options.objective_floors) continue;
        floor_edges.push_back(
            FloorEdge{msg.src, msg.dst, b1, b2,
                      w1 + min_delay[r1][r2] * msg.payload});
        if (r1 != r2 && min_energy[r1][r2] > 0) {
          const auto key = std::make_pair(r1, r2);
          auto it = copair_of.find(key);
          if (it == copair_of.end()) {
            const Atom cp = prog.new_atom(atom_name(
                "copair", {msg.name, res[r1].name, res[r2].name}));
            floor_terms.push_back(
                FloorTerm{cp, min_energy[r1][r2] * msg.payload});
            it = copair_of.emplace(key, cp).first;
          }
          prog.rule(it->second, {pos(b1), pos(b2)});
        }
      }
    }
  }

  // ---- serialization (resource sharing) -----------------------------------
  for (TaskId t1 = 0; t1 < T; ++t1) {
    for (TaskId t2 = t1 + 1; t2 < T; ++t2) {
      bool shares = false;
      for (ResourceId r = 0; r < R; ++r) {
        if (task_res[t1][r] != 0 && task_res[t2][r] != 0) {
          shares = true;
          break;
        }
      }
      if (!shares) continue;
      const Atom same = prog.new_atom(
          atom_name("share", {tasks[t1].name, tasks[t2].name}));
      for (std::size_t i = 0; i < spec.mappings_of(t1).size(); ++i) {
        for (std::size_t j = 0; j < spec.mappings_of(t2).size(); ++j) {
          const ResourceId r1 = spec.mappings()[spec.mappings_of(t1)[i]].resource;
          const ResourceId r2 = spec.mappings()[spec.mappings_of(t2)[j]].resource;
          if (r1 != r2) continue;
          prog.rule(same, {pos(enc.bind_atom[t1][i]), pos(enc.bind_atom[t2][j])});
        }
      }
      const Atom p12 = prog.new_atom(
          atom_name("prec", {tasks[t1].name, tasks[t2].name}));
      const Atom p21 = prog.new_atom(
          atom_name("prec", {tasks[t2].name, tasks[t1].name}));
      prog.choice_rule(p12, {pos(same)});
      prog.choice_rule(p21, {pos(same)});
      prog.integrity({pos(same), neg(p12), neg(p21)});
      prog.integrity({pos(p12), pos(p21)});
      enc.prec_pairs.push_back(Encoding::PrecPair{t1, t2, p12, p21});
    }
  }

  // ---- compile the program into the solver --------------------------------
  // Hop-indexed routing keeps the program tight, which compile() checks.
  enc.compiled = asp::compile(prog, solver);

  // Exactly one binding per task; at most one step per message and hop.
  for (TaskId t = 0; t < T; ++t) {
    std::vector<Lit> lits;
    for (const Atom a : enc.bind_atom[t]) lits.push_back(enc.lit(a));
    asp::encode_exactly_one(solver, lits);
  }
  for (MessageId m = 0; m < M; ++m) {
    for (std::uint32_t h = 1; h <= H; ++h) {
      std::vector<Lit> lits;
      for (LinkId l = 0; l < L; ++l) {
        if (enc.step_atom[m][h][l] != Encoding::kNoAtom) {
          lits.push_back(enc.lit(enc.step_atom[m][h][l]));
        }
      }
      if (lits.size() >= 2) asp::encode_at_most_one(solver, lits);
    }
  }

  // Resource capacities: at most `capacity` tasks bound to a resource.
  for (ResourceId r = 0; r < R; ++r) {
    if (res[r].capacity == 0) continue;
    std::vector<Lit> bound_here;
    for (TaskId t = 0; t < T; ++t) {
      for (std::size_t i = 0; i < spec.mappings_of(t).size(); ++i) {
        if (spec.mappings()[spec.mappings_of(t)[i]].resource == r) {
          bound_here.push_back(enc.lit(enc.bind_atom[t][i]));
        }
      }
    }
    asp::encode_at_most(solver, bound_here, res[r].capacity);
  }

  // ---- objectives: cost and energy (guarded linear sums) ------------------
  {
    std::vector<theory::Term> cost_terms;
    for (ResourceId r = 0; r < R; ++r) {
      if (res[r].cost > 0) {
        cost_terms.push_back(theory::Term{enc.lit(enc.alloc_atom[r]), res[r].cost});
      }
    }
    enc.cost_sum = linear.add_sum("cost", std::move(cost_terms));

    std::vector<theory::Term> energy_terms;
    for (TaskId t = 0; t < T; ++t) {
      for (std::size_t i = 0; i < spec.mappings_of(t).size(); ++i) {
        const MappingOption& o = spec.mappings()[spec.mappings_of(t)[i]];
        if (o.energy > 0) {
          energy_terms.push_back(theory::Term{enc.lit(enc.bind_atom[t][i]), o.energy});
        }
      }
    }
    for (MessageId m = 0; m < M; ++m) {
      for (std::uint32_t h = 1; h <= H; ++h) {
        for (LinkId l = 0; l < L; ++l) {
          if (enc.step_atom[m][h][l] == Encoding::kNoAtom) continue;
          const std::int64_t e = links[l].hop_energy * msgs[m].payload;
          if (e > 0) {
            energy_terms.push_back(
                theory::Term{enc.lit(enc.step_atom[m][h][l]), e});
          }
        }
      }
    }
    enc.energy_sum = linear.add_sum("energy", std::move(energy_terms));

    // Redundant energy floor: task terms + minimal communication energy of
    // each bound endpoint pair (never exceeds the true energy).  Without a
    // copair term it would be a sub-sum of energy that can never bind.
    if (!floor_terms.empty()) {
      std::vector<theory::Term> floor;
      for (TaskId t = 0; t < T; ++t) {
        for (std::size_t i = 0; i < spec.mappings_of(t).size(); ++i) {
          const MappingOption& o = spec.mappings()[spec.mappings_of(t)[i]];
          if (o.energy > 0) {
            floor.push_back(theory::Term{enc.lit(enc.bind_atom[t][i]), o.energy});
          }
        }
      }
      for (const FloorTerm& ft : floor_terms) {
        floor.push_back(theory::Term{enc.lit(ft.copair), ft.weight});
      }
      enc.energy_floor_sum = linear.add_sum("energy_floor", std::move(floor));
    }
  }

  // ---- latency: difference-logic scheduling -------------------------------
  enc.start_node.resize(T);
  for (TaskId t = 0; t < T; ++t) {
    enc.start_node[t] = dl.new_node("start(" + tasks[t].name + ")");
  }
  enc.makespan = dl.new_node("makespan");
  if (spec.latency_bound > 0) {
    // Hard deadline: enforced unconditionally (infeasibility, not
    // dominance).  Objective bounds added later are separate entries.
    dl.add_bound(enc.makespan, spec.latency_bound);
  }
  for (TaskId t = 0; t < T; ++t) {
    for (std::size_t i = 0; i < spec.mappings_of(t).size(); ++i) {
      const MappingOption& o = spec.mappings()[spec.mappings_of(t)[i]];
      dl.add_edge(enc.start_node[t], enc.makespan, o.wcet,
                  {enc.lit(enc.bind_atom[t][i])});
    }
  }

  enc.msgpos_node.assign(M, {});
  for (MessageId m = 0; m < M; ++m) {
    const Message& msg = msgs[m];
    enc.msgpos_node[m].assign(H + 1, Encoding::kNoNode);
    for (std::uint32_t h = 0; h <= H; ++h) {
      bool head_exists = false;
      for (ResourceId r = 0; r < R; ++r) {
        if (enc.head_atom[m][h][r] != Encoding::kNoAtom) {
          head_exists = true;
          break;
        }
      }
      if (head_exists) {
        enc.msgpos_node[m][h] =
            dl.new_node(atom_name("msgpos", {msg.name, std::to_string(h)}));
      }
    }
    // Departure: after the producer finishes.
    for (std::size_t i = 0; i < spec.mappings_of(msg.src).size(); ++i) {
      const MappingOption& o = spec.mappings()[spec.mappings_of(msg.src)[i]];
      dl.add_edge(enc.start_node[msg.src], enc.msgpos_node[m][0], o.wcet,
                  {enc.lit(enc.bind_atom[msg.src][i])});
    }
    // Store-and-forward hops.
    for (std::uint32_t h = 1; h <= H; ++h) {
      for (LinkId l = 0; l < L; ++l) {
        if (enc.step_atom[m][h][l] == Encoding::kNoAtom) continue;
        assert(enc.msgpos_node[m][h] != Encoding::kNoNode &&
               enc.msgpos_node[m][h - 1] != Encoding::kNoNode);
        dl.add_edge(enc.msgpos_node[m][h - 1], enc.msgpos_node[m][h],
                    links[l].hop_delay * msg.payload,
                    {enc.lit(enc.step_atom[m][h][l])});
      }
    }
    // Delivery gates the consumer.
    for (std::uint32_t h = 0; h <= H; ++h) {
      if (enc.arrived_atom[m][h] == Encoding::kNoAtom) continue;
      dl.add_edge(enc.msgpos_node[m][h], enc.start_node[msg.dst], 0,
                  {enc.lit(enc.arrived_atom[m][h])});
    }
  }

  // Delay floors: end-to-end minimal communication latency per endpoint
  // pair, active as soon as both bindings are decided.
  for (const FloorEdge& fe : floor_edges) {
    dl.add_edge(enc.start_node[fe.src], enc.start_node[fe.dst], fe.weight,
                {enc.lit(fe.bind_src), enc.lit(fe.bind_dst)});
  }

  // Serialization edges.
  for (const Encoding::PrecPair& pp : enc.prec_pairs) {
    for (std::size_t i = 0; i < spec.mappings_of(pp.t1).size(); ++i) {
      const MappingOption& o = spec.mappings()[spec.mappings_of(pp.t1)[i]];
      dl.add_edge(enc.start_node[pp.t1], enc.start_node[pp.t2], o.wcet,
                  {enc.lit(pp.t1_first), enc.lit(enc.bind_atom[pp.t1][i])});
    }
    for (std::size_t j = 0; j < spec.mappings_of(pp.t2).size(); ++j) {
      const MappingOption& o = spec.mappings()[spec.mappings_of(pp.t2)[j]];
      dl.add_edge(enc.start_node[pp.t2], enc.start_node[pp.t1], o.wcet,
                  {enc.lit(pp.t2_first), enc.lit(enc.bind_atom[pp.t2][j])});
    }
  }

  // ---- projection (decision atoms) ----------------------------------------
  for (TaskId t = 0; t < T; ++t) {
    for (const Atom a : enc.bind_atom[t]) enc.decision_lits.push_back(enc.lit(a));
  }
  for (MessageId m = 0; m < M; ++m) {
    for (std::uint32_t h = 1; h <= H; ++h) {
      for (LinkId l = 0; l < L; ++l) {
        if (enc.step_atom[m][h][l] != Encoding::kNoAtom) {
          enc.decision_lits.push_back(enc.lit(enc.step_atom[m][h][l]));
        }
      }
    }
  }
  for (const Encoding::PrecPair& pp : enc.prec_pairs) {
    enc.decision_lits.push_back(enc.lit(pp.t1_first));
    enc.decision_lits.push_back(enc.lit(pp.t2_first));
  }

  return enc;
}

Implementation decode_current(const Specification& spec, const Encoding& enc,
                              const asp::Solver& solver,
                              const theory::LinearSumPropagator& linear,
                              const theory::DifferencePropagator& dl) {
  const std::size_t T = spec.tasks().size();
  const std::size_t M = spec.messages().size();
  const std::size_t L = spec.links().size();
  Implementation impl;
  impl.option_of_task.assign(T, 0);
  impl.binding.assign(T, 0);
  impl.route.assign(M, {});
  impl.start.assign(T, 0);

  for (TaskId t = 0; t < T; ++t) {
    [[maybe_unused]] bool found = false;
    for (std::size_t i = 0; i < spec.mappings_of(t).size(); ++i) {
      if (solver.value(enc.lit(enc.bind_atom[t][i])) == asp::Lbool::True) {
        const std::size_t mi = spec.mappings_of(t)[i];
        impl.option_of_task[t] = mi;
        impl.binding[t] = spec.mappings()[mi].resource;
        found = true;
        break;
      }
    }
    assert(found && "total assignment must bind every task");
    impl.start[t] = dl.lower_bound(enc.start_node[t]);
  }

  for (MessageId m = 0; m < M; ++m) {
    for (std::uint32_t h = 1; h <= enc.hops; ++h) {
      if (enc.arrived_acc_atom[m][h - 1] != Encoding::kNoAtom &&
          solver.value(enc.lit(enc.arrived_acc_atom[m][h - 1])) ==
              asp::Lbool::True) {
        break;  // already delivered
      }
      for (LinkId l = 0; l < L; ++l) {
        if (enc.step_atom[m][h][l] == Encoding::kNoAtom) continue;
        if (solver.value(enc.lit(enc.step_atom[m][h][l])) == asp::Lbool::True) {
          impl.route[m].push_back(l);
          break;
        }
      }
    }
  }

  impl.latency = dl.lower_bound(enc.makespan);
  // At a total assignment every guard is decided, so the lower bounds of the
  // guarded sums are the exact objective values.
  impl.energy = linear.lower_bound(enc.energy_sum);
  impl.cost = linear.lower_bound(enc.cost_sum);
  return impl;
}

}  // namespace aspmt::synth
