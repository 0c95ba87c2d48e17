// Multi-threaded stress and property tests for the sharded concurrent
// Pareto archive: whatever the interleaving, the final archive must equal a
// sequential insert of the same point multiset, no archived point may
// dominate another, and the generation counter / update log must let a
// reader reconstruct the front exactly.
#include "pareto/concurrent_archive.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "pareto/archive.hpp"
#include "pareto/quadtree.hpp"
#include "util/rng.hpp"

namespace aspmt::pareto {
namespace {

constexpr std::size_t kWriters = 8;
constexpr std::size_t kPointsPerWriter = 10000;

std::vector<std::vector<Vec>> random_batches(std::uint64_t seed,
                                             std::int64_t value_range) {
  std::vector<std::vector<Vec>> batches(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    util::Rng rng(seed + w * 7919);
    batches[w].reserve(kPointsPerWriter);
    for (std::size_t i = 0; i < kPointsPerWriter; ++i) {
      batches[w].push_back(Vec{rng.range(0, value_range),
                               rng.range(0, value_range),
                               rng.range(0, value_range)});
    }
  }
  return batches;
}

class ConcurrentArchiveStress
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ConcurrentArchiveStress, EightWritersMatchSequentialInsert) {
  // A tight value range maximizes dominance churn (insert+evict), a wide
  // one maximizes archive size; cover both.
  for (const std::int64_t range : {30LL, 100000LL}) {
    const auto batches = random_batches(0xC0FFEE + range, range);
    ConcurrentArchive shared(GetParam(), 3);
    std::atomic<std::uint64_t> successful{0};
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (std::size_t w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::uint64_t mine = 0;
        for (const Vec& p : batches[w]) {
          if (shared.insert(p)) ++mine;
        }
        successful.fetch_add(mine);
      });
    }
    for (std::thread& t : writers) t.join();

    // Reference: the same multiset inserted sequentially.  The final
    // non-dominated set is order-independent, so any interleaving must
    // produce exactly this.
    std::vector<Vec> all;
    all.reserve(kWriters * kPointsPerWriter);
    for (const auto& batch : batches) {
      all.insert(all.end(), batch.begin(), batch.end());
    }
    EXPECT_EQ(shared.points(), non_dominated_filter(std::move(all)));
    EXPECT_EQ(shared.generation(), successful.load());
    EXPECT_LE(shared.size(), successful.load());
  }
}

TEST_P(ConcurrentArchiveStress, NoArchivedPointDominatesAnother) {
  const auto batches = random_batches(0xBEEF, 40);
  ConcurrentArchive shared(GetParam(), 3);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Vec& p : batches[w]) shared.insert(p);
    });
  }
  for (std::thread& t : writers) t.join();
  const std::vector<Vec> front = shared.points();
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(weakly_dominates(front[i], front[j]))
          << to_string(front[i]) << " vs " << to_string(front[j]);
    }
  }
}

TEST_P(ConcurrentArchiveStress, ReaderReconstructsFrontFromUpdateLog) {
  const auto batches = random_batches(0xF00D, 60);
  ConcurrentArchive shared(GetParam(), 3);
  std::atomic<bool> done{false};

  // A reader mirrors what a worker's dominance propagator does: poll the
  // lock-free generation counter, pull increments, replay into a local
  // snapshot archive.
  LinearArchive local;
  std::thread reader([&] {
    std::uint64_t synced = 0;
    std::vector<Vec> buffer;
    while (!done.load(std::memory_order_acquire)) {
      if (shared.generation() != synced) {
        buffer.clear();
        synced = shared.fetch_updates(synced, buffer);
        for (const Vec& p : buffer) local.insert(p);
      }
      std::this_thread::yield();
    }
    // Final drain after the writers stopped.
    buffer.clear();
    synced = shared.fetch_updates(synced, buffer);
    for (const Vec& p : buffer) local.insert(p);
  });

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (const Vec& p : batches[w]) shared.insert(p);
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(local.points(), shared.points());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ConcurrentArchiveStress,
                         ::testing::Values("linear", "quadtree"));

TEST(ConcurrentArchive, SingleThreadMatchesPlainArchiveSemantics) {
  ConcurrentArchive shared("quadtree", 3);
  EXPECT_TRUE(shared.insert(Vec{3, 3, 3}));
  EXPECT_FALSE(shared.insert(Vec{3, 3, 3}));  // duplicate
  EXPECT_FALSE(shared.insert(Vec{4, 3, 3}));  // weakly dominated
  EXPECT_TRUE(shared.insert(Vec{1, 5, 5}));   // incomparable
  EXPECT_TRUE(shared.insert(Vec{1, 4, 5}));   // evicts (1,5,5)
  EXPECT_EQ(shared.size(), 2U);
  EXPECT_EQ(shared.points(), (std::vector<Vec>{{1, 4, 5}, {3, 3, 3}}));
  EXPECT_EQ(shared.generation(), 3U);  // three successful inserts
}

TEST(ConcurrentArchive, InsertRejectsAPointOfTheWrongDimension) {
  for (const char* kind : {"linear", "quadtree"}) {
    ConcurrentArchive shared(kind, 3);
    ASSERT_TRUE(shared.insert(Vec{4544, 10, 7})) << kind;
    EXPECT_THROW(shared.insert(Vec{0, 0, 0, 0}), std::invalid_argument) << kind;
    // A 2-axis point in a 3-axis archive: the shape of a merge archive
    // built with the wrong axis count.
    EXPECT_THROW(shared.insert(Vec{4544, 10}), std::invalid_argument) << kind;
    EXPECT_EQ(shared.points(), (std::vector<Vec>{{4544, 10, 7}})) << kind;
    EXPECT_EQ(shared.generation(), 1U) << kind;
  }
}

TEST(ConcurrentArchive, TrippedCancelTokenAbandonsInsertWithoutMutation) {
  ConcurrentArchive shared("quadtree", 3);
  ASSERT_TRUE(shared.insert(Vec{3, 3, 3}));
  std::atomic<bool> cancel{true};
  // The would-be insert dominates the archived point (it would evict it);
  // the tripped token must abandon it before any mutation.
  EXPECT_FALSE(shared.insert(Vec{1, 1, 1}, &cancel));
  EXPECT_EQ(shared.points(), (std::vector<Vec>{{3, 3, 3}}));
  EXPECT_EQ(shared.generation(), 1U);
  cancel.store(false);
  EXPECT_TRUE(shared.insert(Vec{1, 1, 1}, &cancel));
  EXPECT_EQ(shared.points(), (std::vector<Vec>{{1, 1, 1}}));
}

TEST(ConcurrentArchive, MidInsertCancellationKeepsFrontDominanceConsistent) {
  // Writers race full batches against a token tripped mid-flight: however
  // many inserts the cancellation cuts off, the surviving archive must be
  // mutually non-dominated, contain only inserted points, and agree with
  // the generation counter — i.e. cancellation between the optimistic
  // shared-lock pass and the exclusive escalation never tears an insert.
  const auto batches = random_batches(0xCA11, 40);
  ConcurrentArchive shared("quadtree", 3);
  std::atomic<bool> cancel{false};
  std::atomic<std::uint64_t> successful{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::uint64_t mine = 0;
      for (std::size_t i = 0; i < batches[w].size(); ++i) {
        if (w == 0 && i == batches[w].size() / 2) {
          cancel.store(true, std::memory_order_release);  // trip mid-run
        }
        if (shared.insert(batches[w][i], &cancel)) ++mine;
      }
      successful.fetch_add(mine);
    });
  }
  for (std::thread& t : writers) t.join();

  const std::vector<Vec> front = shared.points();
  for (std::size_t i = 0; i < front.size(); ++i) {
    for (std::size_t j = 0; j < front.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(weakly_dominates(front[j], front[i]))
            << to_string(front[j]) << " vs " << to_string(front[i]);
      }
    }
  }
  EXPECT_EQ(shared.generation(), successful.load());
  EXPECT_LE(shared.size(), successful.load());
  // Every archived point is one the writers actually offered.
  for (const Vec& p : front) {
    bool known = false;
    for (const auto& batch : batches) {
      for (const Vec& q : batch) known = known || q == p;
    }
    EXPECT_TRUE(known) << to_string(p);
  }
}

TEST(ConcurrentArchive, FetchUpdatesReturnsEvictedEntriesToo) {
  ConcurrentArchive shared("linear", 3, 2);
  ASSERT_TRUE(shared.insert(Vec{5, 5, 5}));
  ASSERT_TRUE(shared.insert(Vec{2, 2, 2}));  // evicts (5,5,5)
  std::vector<Vec> log;
  const std::uint64_t gen = shared.fetch_updates(0, log);
  EXPECT_EQ(gen, 2U);
  EXPECT_EQ(log, (std::vector<Vec>{{5, 5, 5}, {2, 2, 2}}));
  // Replaying the full log into a fresh archive yields the current front.
  LinearArchive replay;
  for (const Vec& p : log) replay.insert(p);
  EXPECT_EQ(replay.points(), shared.points());
}

// The eviction half of insert(), exposed for the sharded archive, must
// behave identically on both archive kinds.
template <typename A>
void check_erase_dominated_by(A&& archive) {
  archive.insert(Vec{2, 2, 2});
  archive.insert(Vec{1, 5, 1});
  archive.insert(Vec{5, 1, 1});
  EXPECT_EQ(archive.erase_dominated_by(Vec{1, 1, 1}), 3U);
  EXPECT_EQ(archive.size(), 0U);
  archive.insert(Vec{2, 2, 2});
  // A point equal to p must survive erase_dominated_by(p).
  EXPECT_EQ(archive.erase_dominated_by(Vec{2, 2, 2}), 0U);
  EXPECT_EQ(archive.size(), 1U);
  // Incomparable points survive.
  EXPECT_EQ(archive.erase_dominated_by(Vec{1, 9, 9}), 0U);
  EXPECT_EQ(archive.size(), 1U);
}

TEST(EraseDominatedBy, LinearArchive) { check_erase_dominated_by(LinearArchive{}); }

TEST(EraseDominatedBy, QuadTreeArchive) {
  check_erase_dominated_by(QuadTreeArchive{3});
}

}  // namespace
}  // namespace aspmt::pareto
