// NoC multimedia scenario: a video-pipeline task graph on a 3x3 mesh NoC.
//
// The classic DSE demonstrator: a decode pipeline with parallel enhancement
// branches mapped onto a mesh of heterogeneous tiles.  Compares the exact
// ASPmT front against the NSGA-II approximation under a matched wall-clock
// budget — the Figure-1 story on a concrete application.
#include <algorithm>
#include <iostream>

#include "dse/explorer.hpp"
#include "ea/nsga2.hpp"
#include "gen/generator.hpp"
#include "pareto/indicators.hpp"
#include "synth/spec.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

aspmt::synth::Specification build_noc_spec() {
  using namespace aspmt::synth;
  Specification spec;
  // 3x3 mesh of routers, one tile processor each; alternating fast/slow
  // tiles.
  ResourceId router[3][3];
  ResourceId tile[3][3];
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      std::string name = "r";
      name += std::to_string(x);
      name += std::to_string(y);
      router[y][x] = spec.add_resource(std::move(name), ResourceKind::Router, 2);
    }
  }
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      const bool fast = (x + y) % 2 == 0;
      tile[y][x] = spec.add_resource(
          "tile" + std::to_string(x) + std::to_string(y),
          ResourceKind::Processor, fast ? 12 : 6);
      spec.add_link(tile[y][x], router[y][x], 1, 1);
      spec.add_link(router[y][x], tile[y][x], 1, 1);
      if (x > 0) {
        spec.add_link(router[y][x - 1], router[y][x], 1, 1);
        spec.add_link(router[y][x], router[y][x - 1], 1, 1);
      }
      if (y > 0) {
        spec.add_link(router[y - 1][x], router[y][x], 1, 1);
        spec.add_link(router[y][x], router[y - 1][x], 1, 1);
      }
    }
  }

  // Video pipeline: parse -> decode -> {luma, chroma} -> merge -> output.
  const TaskId parse = spec.add_task("parse");
  const TaskId decode = spec.add_task("decode");
  const TaskId luma = spec.add_task("luma_filter");
  const TaskId chroma = spec.add_task("chroma_filter");
  const TaskId merge = spec.add_task("merge");
  const TaskId output = spec.add_task("output");
  spec.add_message("bitstream", parse, decode, 2);
  spec.add_message("coeffs_y", decode, luma, 3);
  spec.add_message("coeffs_c", decode, chroma, 2);
  spec.add_message("y_plane", luma, merge, 3);
  spec.add_message("c_plane", chroma, merge, 2);
  spec.add_message("frame", merge, output, 4);

  // Each task may run on two specific tiles (fast vs slow operating point).
  auto map2 = [&](TaskId t, ResourceId fast_tile, ResourceId slow_tile,
                  std::int64_t work) {
    spec.add_mapping(t, fast_tile, work, work * 3);
    spec.add_mapping(t, slow_tile, work * 2, work);
  };
  map2(parse, tile[0][0], tile[0][1], 2);
  map2(decode, tile[1][1], tile[0][1], 4);
  map2(luma, tile[2][0], tile[1][0], 3);
  map2(chroma, tile[0][2], tile[1][2], 2);
  map2(merge, tile[1][1], tile[2][1], 2);
  map2(output, tile[2][2], tile[2][1], 1);
  return spec;
}

}  // namespace

int main() {
  using namespace aspmt;
  const synth::Specification spec = build_noc_spec();
  if (const std::string err = spec.validate(); !err.empty()) {
    std::cerr << "broken spec: " << err << "\n";
    return 1;
  }
  std::cout << "NoC multimedia pipeline (" << gen::summarize(spec) << ")\n\n";

  dse::ExploreOptions opts;
  opts.common.time_limit_seconds = 60.0;
  const dse::ExploreResult exact = dse::explore(spec, opts);
  std::cout << "exact front: " << exact.front.size() << " points ("
            << (exact.stats.complete ? "complete" : "time-limited") << ", "
            << util::fmt(exact.stats.seconds, 2) << "s, "
            << exact.stats.models << " models, " << exact.stats.prunings
            << " prunings)\n";

  // EA with a matched wall-clock budget.
  ea::Nsga2Options ea_opts;
  ea_opts.seed = 3;
  ea_opts.population = 60;
  ea_opts.generations = 80;
  const ea::Nsga2Result approx = ea::nsga2(spec, ea_opts);
  std::cout << "nsga2 front: " << approx.front.size() << " points ("
            << approx.evaluations << " evaluations, "
            << util::fmt(approx.seconds, 2) << "s)\n\n";

  util::Table table({"latency", "energy", "cost", "found by"});
  for (const auto& p : exact.front) {
    const bool also_ea =
        std::find(approx.front.begin(), approx.front.end(), p) !=
        approx.front.end();
    table.add_row({util::fmt(p[0]), util::fmt(p[1]), util::fmt(p[2]),
                   also_ea ? "both" : "exact only"});
  }
  table.print(std::cout);

  pareto::Vec ref(3, 0);
  for (const auto& p : exact.front) {
    for (int o = 0; o < 3; ++o) ref[o] = std::max(ref[o], p[o] + 1);
  }
  for (const auto& p : approx.front) {
    for (int o = 0; o < 3; ++o) ref[o] = std::max(ref[o], p[o] + 1);
  }
  std::cout << "\nhypervolume: exact="
            << util::fmt(pareto::hypervolume(exact.front, ref), 1)
            << " nsga2=" << util::fmt(pareto::hypervolume(approx.front, ref), 1)
            << "\ncoverage of the exact front by nsga2: "
            << util::fmt(100.0 * pareto::coverage_ratio(approx.front, exact.front), 1)
            << "%\n";
  return 0;
}
