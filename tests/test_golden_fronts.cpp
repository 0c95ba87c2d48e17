// Golden-front regression layer: the exact Pareto front of every fixture
// and every checked-in example specification is pinned in
// tests/golden/<name>.front and must be reproduced bit-for-bit, and
// certified, by dse::explore and by the parallel portfolio at 1, 2 and 4
// threads.  Regenerate after an intentional encoding change with
//   ASPMT_WRITE_GOLDEN=1 ./aspmt_tests --gtest_filter='*GoldenFronts*'
// and review the .front diff like any other code change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/checkpoint.hpp"
#include "dse/explorer.hpp"
#include "dse/parallel_explorer.hpp"
#include "dse/respec.hpp"
#include "synth/specio.hpp"
#include "synth_fixtures.hpp"

#ifndef ASPMT_TEST_DATA_DIR
#error "tests/CMakeLists.txt must define ASPMT_TEST_DATA_DIR"
#endif

namespace aspmt {
namespace {

struct GoldenCase {
  const char* name;
  synth::Specification (*fixture)();  // null: load examples/specs/<name>.txt
};

const GoldenCase kCases[] = {
    {"two_proc_bus", &test::two_proc_bus},
    {"chain3_bus", &test::chain3_bus},
    {"diamond_two_proc", &test::diamond_two_proc},
    {"singleton", &test::singleton},
    {"bus_small", nullptr},
    {"mesh_small", nullptr},
    {"bus_wide", nullptr},
    {"mesh_chain", nullptr},
    {"bus_small_edited", nullptr},
    {"mesh_small_edited", nullptr},
    // Multicore PPA family under combinator objectives (ObjectiveTerm
    // trees): lexicographic latency-then-energy vs. area, a
    // minmax/scenario-worst robustness pairing, and a weighted energy/area
    // axis (built as one linear sum) vs. latency.
    {"multicore_lex", nullptr},
    {"multicore_minmax", nullptr},
    {"multicore_weighted", nullptr},
};

/// Checked-in (base, single-edit) spec pairs for the incremental
/// re-exploration layer: a session checkpointed on `base` is re-explored on
/// `edited` and must land exactly on the edited spec's golden front.
struct RespecPair {
  const char* base;
  const char* edited;
};

const RespecPair kRespecPairs[] = {
    {"bus_small", "bus_small_edited"},
    {"mesh_small", "mesh_small_edited"},
};

std::string data_path(const std::string& relative) {
  return std::string(ASPMT_TEST_DATA_DIR) + "/" + relative;
}

synth::Specification load_case(const GoldenCase& c) {
  if (c.fixture != nullptr) return c.fixture();
  return synth::load_specification(
      data_path("examples/specs/" + std::string(c.name) + ".txt"));
}

std::string golden_path(const GoldenCase& c) {
  return data_path("tests/golden/" + std::string(c.name) + ".front");
}

bool regenerating() { return std::getenv("ASPMT_WRITE_GOLDEN") != nullptr; }

std::string front_to_text(const std::vector<pareto::Vec>& front) {
  std::ostringstream out;
  for (const pareto::Vec& p : front) {
    for (std::size_t i = 0; i < p.size(); ++i) out << (i ? " " : "") << p[i];
    out << "\n";
  }
  return out.str();
}

std::vector<pareto::Vec> parse_front(std::istream& in) {
  std::vector<pareto::Vec> front;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    pareto::Vec point;
    std::istringstream iss(line);
    std::int64_t v = 0;
    while (iss >> v) point.push_back(v);
    if (!point.empty()) front.push_back(std::move(point));
  }
  return front;
}

std::vector<pareto::Vec> load_golden(const GoldenCase& c) {
  std::ifstream in(golden_path(c));
  EXPECT_TRUE(in.is_open())
      << "missing golden file " << golden_path(c)
      << " — regenerate with ASPMT_WRITE_GOLDEN=1";
  return parse_front(in);
}

class GoldenFronts : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenFronts, SequentialCertifiedFrontMatchesGolden) {
  const GoldenCase& c = GetParam();
  const synth::Specification spec = load_case(c);
  dse::ExploreOptions opts;
  opts.common.certify = true;
  const dse::ExploreResult r = dse::explore(spec, opts);
  ASSERT_TRUE(r.stats.complete) << c.name;
  EXPECT_TRUE(r.certified) << c.name << ": " << r.certificate_error;
  EXPECT_TRUE(r.stream_checked) << c.name << ": fell back to the replay";
  test::expect_front_shape(spec, r);
  if (regenerating()) {
    std::ofstream out(golden_path(c));
    ASSERT_TRUE(out.is_open()) << "cannot write " << golden_path(c);
    out << front_to_text(r.front);
    GTEST_SKIP() << "regenerated " << golden_path(c);
  }
  EXPECT_EQ(r.front, load_golden(c)) << c.name;
}

TEST_P(GoldenFronts, PortfolioFrontMatchesGoldenAtOneTwoFourThreads) {
  const GoldenCase& c = GetParam();
  if (regenerating()) GTEST_SKIP() << "regeneration uses the sequential run";
  const synth::Specification spec = load_case(c);
  const std::vector<pareto::Vec> golden = load_golden(c);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    dse::ParallelExploreOptions opts;
    opts.threads = threads;
    opts.common.certify = true;
    const dse::ParallelExploreResult r = dse::explore_parallel(spec, opts);
    ASSERT_TRUE(r.base.stats.complete) << c.name << " threads " << threads;
    test::expect_front_shape(spec, r.base);
    EXPECT_TRUE(r.base.certified) << c.name << " threads " << threads << ": "
                                  << r.base.certificate_error;
    // Only a one-worker run checks its proof while the search writes it.
    EXPECT_EQ(r.base.stream_checked, threads == 1)
        << c.name << " threads " << threads;
    EXPECT_EQ(r.base.front, golden) << c.name << " threads " << threads;
    // Uncertified, a portfolio exchanges learnt clauses between its workers.
    opts.common.certify = false;
    const dse::ParallelExploreResult plain = dse::explore_parallel(spec, opts);
    ASSERT_TRUE(plain.base.stats.complete)
        << c.name << " threads " << threads << " uncertified";
    test::expect_front_shape(spec, plain.base);
    EXPECT_EQ(plain.base.front, golden)
        << c.name << " threads " << threads << " uncertified";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, GoldenFronts, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

class GoldenRespecPairs : public ::testing::TestWithParam<RespecPair> {};

TEST_P(GoldenRespecPairs, IncrementalFrontMatchesEditedGoldenAtAllThreads) {
  const RespecPair& pair = GetParam();
  if (regenerating()) GTEST_SKIP() << "regeneration uses the sequential run";
  const synth::Specification base = synth::load_specification(
      data_path("examples/specs/" + std::string(pair.base) + ".txt"));
  const synth::Specification edited = synth::load_specification(
      data_path("examples/specs/" + std::string(pair.edited) + ".txt"));
  ASSERT_EQ(base.validate(), "");
  ASSERT_EQ(edited.validate(), "");
  const std::vector<pareto::Vec> golden = load_golden({pair.edited, nullptr});

  // The previous session: a real run on the base spec with a snapshot file.
  const std::string ckpt_path = ::testing::TempDir() + "aspmt_golden_" +
                                std::string(pair.base) + ".ckpt";
  dse::ExploreOptions prev_opts;
  prev_opts.common.checkpoint_path = ckpt_path;
  const dse::ExploreResult prev_run = dse::explore(base, prev_opts);
  ASSERT_TRUE(prev_run.stats.complete) << pair.base;
  test::expect_front_shape(base, prev_run);
  dse::Checkpoint prev;
  ASSERT_EQ(dse::load_checkpoint(ckpt_path, prev), "") << pair.base;
  std::remove(ckpt_path.c_str());

  for (const std::size_t threads : {1U, 2U, 4U}) {
    dse::ReexploreOptions ro;
    ro.base.threads = threads;
    ro.base.common.certify = true;
    const dse::ReexploreResult r = dse::reexplore(prev, edited, ro);
    ASSERT_TRUE(r.base.stats.complete) << pair.edited << " threads " << threads;
    test::expect_front_shape(edited, r.base);
    EXPECT_EQ(r.base.front, golden) << pair.edited << " threads " << threads;
    EXPECT_TRUE(r.base.certified)
        << pair.edited << " threads " << threads << ": "
        << r.base.certificate_error;
    EXPECT_FALSE(r.reuse.cold_start) << pair.edited;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, GoldenRespecPairs, ::testing::ValuesIn(kRespecPairs),
    [](const ::testing::TestParamInfo<RespecPair>& info) {
      return std::string(info.param.base);
    });

// tests/golden/bus_wide.parent.ckpt was written by a 4-thread run, stopped
// by its conflict budget, of a writer that still emitted the retired `seed`,
// `elapsed-ms`, `warm` and `slices` lines.  It keeps loading, and a restart
// from it reaches the golden front: certified at one thread, and at four.
TEST(GoldenCheckpoint, RetiredLinesFixtureResumesToTheGoldenFront) {
  if (regenerating()) GTEST_SKIP() << "regeneration uses the sequential run";
  const std::string path = data_path("tests/golden/bus_wide.parent.ckpt");
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  for (const char* retired :
       {"\nseed ", "\nelapsed-ms ", "\nwarm ", "\nslices "}) {
    EXPECT_NE(text.str().find(retired), std::string::npos) << retired;
  }
  dse::Checkpoint ckpt;
  ASSERT_EQ(dse::parse_checkpoint(text.str(), ckpt), "");
  ASSERT_FALSE(ckpt.points.empty());
  ASSERT_FALSE(ckpt.clauses.empty());

  const GoldenCase bus_wide{"bus_wide", nullptr};
  const synth::Specification spec = load_case(bus_wide);
  const std::vector<pareto::Vec> golden = load_golden(bus_wide);
  for (const std::size_t threads : {1U, 4U}) {
    dse::ReexploreOptions ro;
    ro.base.threads = threads;
    ro.base.common.certify = threads == 1;
    const dse::ReexploreResult r = dse::reexplore(ckpt, spec, ro);
    ASSERT_TRUE(r.base.stats.complete) << "threads " << threads;
    EXPECT_EQ(r.reuse.delta.cls, dse::DeltaClass::Identical);
    EXPECT_EQ(r.reuse.clauses_replayed, ckpt.clauses.size());
    EXPECT_EQ(r.base.stats.warm_seeds, ckpt.points.size())
        << "threads " << threads;
    test::expect_front_shape(spec, r.base);
    EXPECT_EQ(r.base.front, golden) << "threads " << threads;
    if (ro.base.common.certify) {
      EXPECT_TRUE(r.base.certified) << r.base.certificate_error;
    }
  }
}

}  // namespace
}  // namespace aspmt
