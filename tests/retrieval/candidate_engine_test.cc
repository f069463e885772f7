// Unit + randomized oracle tests for the shared candidate-retrieval
// engine. The load-bearing property is canonical-output equivalence: for
// any insert/erase history and any query, TopK must return exactly the
// (distance, id)-sorted prefix a linear scan over the live entries would —
// the contract every ported algorithm's bit-identity rests on. The
// *Stress* suite re-runs under `ctest -L stress` with FTOA_STRESS_ITERS.

#include "retrieval/candidate_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "retrieval/stats.h"
#include "retrieval/waiting_pool.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ftoa::testing::ExpectSameRetrievalStats;
using ftoa::testing::StressIterations;

GridSpec MakeGrid() { return GridSpec(100.0, 100.0, 10, 10); }

RetrievalCandidate Entry(int64_t id, double x, double y, double start,
                         double deadline) {
  return RetrievalCandidate{id, {x, y}, start, deadline};
}

/// The linear-scan oracle: every live entry, every predicate applied
/// directly, sorted canonically, truncated to k. Any divergence from this
/// is an engine bug.
template <typename FilterFn>
std::vector<ScoredCandidate> OracleTopK(const CandidateStore& store,
                                        Point origin, double max_distance,
                                        size_t k, double query_time,
                                        StartWindow window,
                                        FilterFn&& filter) {
  std::vector<ScoredCandidate> hits;
  store.ForEach([&](const RetrievalCandidate& e) {
    if (e.start < window.lo || e.start > window.hi) return;
    if (e.deadline < query_time) return;
    const double d = Distance(origin, e.location);
    if (d > max_distance) return;
    if (!filter(e, d)) return;
    hits.push_back(ScoredCandidate{d, e});
  });
  std::sort(hits.begin(), hits.end(),
            [](const ScoredCandidate& a, const ScoredCandidate& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance &&
                      a.candidate.id < b.candidate.id);
            });
  if (hits.size() > k) hits.resize(k);
  return hits;
}

bool AcceptAll(const RetrievalCandidate&, double) { return true; }

void ExpectSameHits(const std::vector<ScoredCandidate>& got,
                    const std::vector<ScoredCandidate>& want,
                    const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].candidate.id, want[i].candidate.id)
        << label << " hit " << i;
    EXPECT_DOUBLE_EQ(got[i].distance, want[i].distance)
        << label << " hit " << i;
  }
}

TEST(CandidateStoreTest, InsertEraseContains) {
  CandidateStore store(MakeGrid());
  EXPECT_EQ(store.size(), 0u);
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 50.0, 50.0, 1.0, 10.0));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(store.Erase(1));
  EXPECT_EQ(store.size(), 1u);
}

TEST(CandidateStoreTest, InsertOverwritesSameId) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(7, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(7, 95.0, 95.0, 2.0, 12.0));
  EXPECT_EQ(store.size(), 1u);
  CandidateCursor cursor(&store, nullptr);
  const RetrievalCandidate hit =
      cursor.Nearest({95.0, 95.0}, 1.0, 0.0, StartWindow{}, AcceptAll);
  EXPECT_EQ(hit.id, 7);
  EXPECT_EQ(hit.start, 2.0);
}

TEST(CandidateStoreTest, OutOfOrderInsertKeepsBucketSorted) {
  // All four land in one cell with descending starts — the sorted-insert
  // slow path. The window binary search only works if the invariant held.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 8.0, 20.0));
  store.Insert(Entry(2, 6.0, 5.0, 4.0, 20.0));
  store.Insert(Entry(3, 5.0, 6.0, 2.0, 20.0));
  store.Insert(Entry(4, 6.0, 6.0, 6.0, 20.0));
  const auto& bucket = store.bucket(store.grid().CellOf({5.0, 5.0}));
  for (size_t i = 1; i < bucket.size(); ++i) {
    EXPECT_LE(bucket[i - 1].start, bucket[i].start);
  }
  CandidateCursor cursor(&store, nullptr);
  const auto& hits = cursor.TopK({5.0, 5.0}, 50.0, 4, 0.0,
                                 StartWindow{3.0, 7.0}, AcceptAll);
  ASSERT_EQ(hits.size(), 2u);  // Only starts 4 and 6 are in-window.
  EXPECT_EQ(hits[0].candidate.id, 2);
  EXPECT_EQ(hits[1].candidate.id, 4);
}

TEST(CandidateCursorTest, EmptyStoreAndZeroKReturnNothing) {
  CandidateStore store(MakeGrid());
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  EXPECT_TRUE(cursor.TopK({1.0, 1.0}, 100.0, 3, 0.0, StartWindow{},
                          AcceptAll)
                  .empty());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  EXPECT_TRUE(cursor.TopK({1.0, 1.0}, 100.0, 0, 0.0, StartWindow{},
                          AcceptAll)
                  .empty());
  EXPECT_EQ(cursor.Nearest({1.0, 1.0}, 100.0, 99.0, StartWindow{},
                           AcceptAll)
                .id,
            -1);  // Everything expired.
  EXPECT_EQ(stats.queries, 3);
}

TEST(CandidateCursorTest, TopKOrdersByDistanceThenId) {
  CandidateStore store(MakeGrid());
  // Two entries equidistant from the origin; the lower id must win.
  store.Insert(Entry(9, 10.0, 14.0, 0.0, 10.0));
  store.Insert(Entry(4, 10.0, 6.0, 0.0, 10.0));
  store.Insert(Entry(2, 10.0, 11.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({10.0, 10.0}, 100.0, 2, 0.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].candidate.id, 2);
  EXPECT_EQ(hits[1].candidate.id, 4);  // Tie at distance 4 vs id 9.
}

TEST(CandidateCursorTest, DeadlineAtQueryTimeIsStillFeasible) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 3.0));
  store.Insert(Entry(2, 6.0, 5.0, 0.0, 2.999));
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({5.0, 5.0}, 100.0, 2, 3.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 1u);  // The strict `< query_time` prune.
  EXPECT_EQ(hits[0].candidate.id, 1);
}

TEST(CandidateCursorTest, ErasedEntriesStayInvisibleThroughCompaction) {
  CandidateStore store(MakeGrid());
  // 20 entries in one cell; erasing 16 forces CompactBucket (dead >= 8 and
  // half the bucket). Survivors must still be found, in order.
  for (int64_t id = 0; id < 20; ++id) {
    store.Insert(Entry(id, 5.0, 5.0 + 0.1 * static_cast<double>(id),
                       static_cast<double>(id), 100.0));
  }
  for (int64_t id = 0; id < 16; ++id) EXPECT_TRUE(store.Erase(id));
  EXPECT_EQ(store.size(), 4u);
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({5.0, 5.0}, 100.0, 10, 0.0, StartWindow{}, AcceptAll);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].candidate.id, 16);
  EXPECT_EQ(hits[3].candidate.id, 19);
}

TEST(CandidateCursorTest, FilterRunsAfterEnginePruning) {
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 6.0, 5.0, 0.0, 10.0));
  CandidateCursor cursor(&store, nullptr);
  const auto& hits =
      cursor.TopK({5.0, 5.0}, 100.0, 2, 0.0, StartWindow{},
                  [](const RetrievalCandidate& e, double) {
                    return e.id != 1;
                  });
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].candidate.id, 2);
}

TEST(CandidateCursorTest, CursorIsReusableAcrossQueriesAndRebinds) {
  CandidateStore a(MakeGrid());
  CandidateStore b(MakeGrid());
  a.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  b.Insert(Entry(2, 5.0, 5.0, 0.0, 10.0));
  RetrievalStats stats;
  CandidateCursor cursor(&a, &stats);
  EXPECT_EQ(cursor.Nearest({5.0, 5.0}, 10.0, 0.0, StartWindow{}, AcceptAll)
                .id,
            1);
  cursor.Bind(&b);
  EXPECT_EQ(cursor.Nearest({5.0, 5.0}, 10.0, 0.0, StartWindow{}, AcceptAll)
                .id,
            2);
  EXPECT_EQ(stats.queries, 2);
}

TEST(RetrievalStatsTest, RecordQueryFeedsHistogramAndPercentiles) {
  RetrievalStats stats;
  stats.RecordQuery(/*cells=*/1, /*examined=*/3, /*pruned=*/1);
  stats.RecordQuery(/*cells=*/1, /*examined=*/2, /*pruned=*/0);
  stats.RecordQuery(/*cells=*/40, /*examined=*/100, /*pruned=*/50);
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cells_visited, 42);
  EXPECT_EQ(stats.candidates_examined, 105);
  EXPECT_EQ(stats.candidates_pruned, 51);
  EXPECT_EQ(stats.max_cells_visited, 40);
  // Nearest-rank percentiles over bucket upper bounds: the median query
  // visited <= 1 cell; the p99 lands in the 40-cell query's bucket, whose
  // bound (64) is clamped to the exact witness.
  EXPECT_EQ(stats.CellsVisitedPercentile(0.50), 1);
  EXPECT_EQ(stats.CellsVisitedPercentile(0.99), 40);
  EXPECT_EQ(stats.CellsVisitedPercentile(1.0), 40);

  RetrievalStats other;
  other.RecordQuery(/*cells=*/2, /*examined=*/1, /*pruned=*/0);
  other.Absorb(stats);
  EXPECT_EQ(other.queries, 4);
  EXPECT_EQ(other.cells_visited, 44);
  EXPECT_EQ(other.max_cells_visited, 40);
}

TEST(CandidateCursorTest, StatsCountOnlyVisitedCells) {
  // One far-away entry: a tight nearest query around a distant origin must
  // not touch the occupied cell (radius lower bound) once the grid walk is
  // exhausted; examined stays 0.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 95.0, 95.0, 0.0, 10.0));
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  EXPECT_EQ(cursor.Nearest({5.0, 5.0}, 3.0, 0.0, StartWindow{}, AcceptAll)
                .id,
            -1);
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.candidates_examined, 0);
  EXPECT_EQ(stats.cells_visited, 0);
}

/// A random store over MakeGrid() for the cell-admission tests.
CandidateStore MakeRandomStore(uint64_t seed, int64_t size) {
  Rng rng(seed);
  CandidateStore store(MakeGrid());
  for (int64_t id = 0; id < size; ++id) {
    const double start = rng.NextDouble(0.0, 10.0);
    store.Insert(Entry(id, rng.NextDouble(0.0, 100.0),
                       rng.NextDouble(0.0, 100.0), start,
                       start + rng.NextDouble(0.0, 10.0)));
  }
  return store;
}

TEST(CandidateCursorTest, AlwaysTrueCellPredicateIsBitIdentical) {
  const CandidateStore store = MakeRandomStore(31, 400);
  RetrievalStats plain_stats;
  RetrievalStats admitted_stats;
  CandidateCursor plain(&store, &plain_stats);
  CandidateCursor admitted(&store, &admitted_stats);
  Rng rng(32);
  for (int q = 0; q < 200; ++q) {
    const Point origin{rng.NextDouble(-5.0, 105.0),
                       rng.NextDouble(-5.0, 105.0)};
    const double max_distance = rng.NextDouble(0.0, 80.0);
    const size_t k = 1 + rng.NextBounded(10);
    const double query_time = rng.NextDouble(0.0, 15.0);
    const StartWindow window{rng.NextDouble(-2.0, 6.0),
                             rng.NextDouble(6.0, 12.0)};
    const auto odd = [](const RetrievalCandidate& e, double) {
      return e.id % 2 == 1;
    };
    const std::vector<ScoredCandidate> want =
        plain.TopK(origin, max_distance, k, query_time, window, odd);
    const auto& got = admitted.TopK(origin, max_distance, k, query_time,
                                    window, [](CellId) { return true; }, odd);
    ExpectSameHits(got, want, "query " + std::to_string(q));
  }
  ExpectSameRetrievalStats(plain_stats, admitted_stats, "stats");
}

TEST(CandidateCursorTest, CellPredicateMatchesOracleWithoutThoseCells) {
  const CandidateStore store = MakeRandomStore(41, 500);
  const GridSpec& grid = store.grid();
  CandidateCursor cursor(&store, nullptr);
  Rng rng(42);
  for (int q = 0; q < 200; ++q) {
    std::vector<char> excluded(static_cast<size_t>(grid.num_cells()), 0);
    for (char& cell : excluded) cell = rng.NextBool(0.4) ? 1 : 0;
    const auto admit = [&excluded](CellId cell) {
      return excluded[static_cast<size_t>(cell)] == 0;
    };
    const Point origin{rng.NextDouble(0.0, 100.0),
                       rng.NextDouble(0.0, 100.0)};
    const double max_distance = rng.NextDouble(5.0, 60.0);
    const size_t k = 1 + rng.NextBounded(12);
    const double query_time = rng.NextDouble(0.0, 15.0);
    const auto& got = cursor.TopK(origin, max_distance, k, query_time,
                                  StartWindow{}, admit, AcceptAll);
    const auto want = OracleTopK(
        store, origin, max_distance, k, query_time, StartWindow{},
        [&](const RetrievalCandidate& e, double) {
          return admit(grid.CellOf(e.location));
        });
    ExpectSameHits(got, want, "query " + std::to_string(q));
  }
}

TEST(CandidateCursorTest, SkippedCellsCountAsNeitherVisitedNorExamined) {
  // Three entries in the origin's cell, one in its neighbour: excluding the
  // origin cell leaves one visited cell and one examined entry.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 6.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(3, 5.0, 6.0, 0.0, 10.0));
  store.Insert(Entry(4, 15.0, 5.0, 0.0, 10.0));
  const CellId origin_cell = store.grid().CellOf({5.0, 5.0});
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  const auto& hits = cursor.TopK(
      {5.0, 5.0}, 50.0, 4, 0.0, StartWindow{},
      [origin_cell](CellId cell) { return cell != origin_cell; }, AcceptAll);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].candidate.id, 4);
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.cells_visited, 1);
  EXPECT_EQ(stats.candidates_examined, 1);
  EXPECT_EQ(stats.max_cells_visited, 1);
}

TEST(CandidateCursorTest, CellListVisitsNearestCellsFirstAndStopsEarly) {
  // Listed far cell first: the query still visits the near cell first,
  // and once k = 1 is held at distance 1 the far cell's lower bound (85)
  // ends the walk before its bucket is scanned. Unlisted cells are never
  // visited, even the origin's own.
  CandidateStore store(MakeGrid());
  store.Insert(Entry(1, 5.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(2, 16.0, 5.0, 0.0, 10.0));
  store.Insert(Entry(3, 95.0, 5.0, 0.0, 10.0));
  const GridSpec& grid = store.grid();
  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  const std::vector<CellId> cells = {grid.CellOf({95.0, 5.0}),
                                     grid.CellOf({16.0, 5.0})};
  const auto& hits = cursor.TopK({15.0, 5.0}, 100.0, 1, 0.0, StartWindow{},
                                 cells, AcceptAll);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].candidate.id, 2);
  EXPECT_EQ(stats.queries, 1);
  EXPECT_EQ(stats.cells_visited, 1);
  EXPECT_EQ(stats.candidates_examined, 1);

  // An empty list visits nothing.
  EXPECT_TRUE(cursor
                  .TopK({15.0, 5.0}, 100.0, 1, 0.0, StartWindow{},
                        std::vector<CellId>{}, AcceptAll)
                  .empty());
  EXPECT_EQ(stats.queries, 2);
  EXPECT_EQ(stats.cells_visited, 1);
}

// The cell-list query against the ring walk whose admit_cell accepts the
// same cells, and against the linear oracle over those cells' entries, on
// randomized stores with tombstones, overwritten ids, lattice points
// (many equal distances, so the id decides) and integer starts (equal
// starts within a bucket).
TEST(CandidateCursorTest, CellListMatchesRingWalkAndOracle) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed * 7919 + 3);
    CandidateStore store(MakeGrid());
    const GridSpec& grid = store.grid();
    const auto lattice = [&rng]() {
      return 5.0 * static_cast<double>(rng.NextBounded(21));
    };
    const auto insert = [&](int64_t id) {
      const double start = static_cast<double>(rng.NextBounded(10));
      store.Insert(Entry(id, lattice(), lattice(), start,
                         start + static_cast<double>(rng.NextBounded(10))));
    };
    for (int64_t id = 0; id < 400; ++id) insert(id);
    for (int64_t id = 0; id < 400; ++id) {
      const double roll = rng.NextDouble();
      if (roll < 0.25) {
        store.Erase(id);  // Tombstone (compaction only for dense buckets).
      } else if (roll < 0.35) {
        insert(id);  // Overwrite: tombstone plus a new entry.
      }
    }

    RetrievalStats ring_stats;
    RetrievalStats list_stats;
    CandidateCursor ring(&store, &ring_stats);
    CandidateCursor list(&store, &list_stats);
    for (int q = 0; q < 40; ++q) {
      std::vector<char> listed(static_cast<size_t>(grid.num_cells()), 0);
      std::vector<CellId> cells;
      for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
        if (rng.NextBool(0.35)) {
          listed[static_cast<size_t>(cell)] = 1;
          cells.push_back(cell);
        }
      }
      // Any order and repeats are allowed: repeat a few, then shuffle.
      for (size_t i = 0, listed_cells = cells.size(); i < listed_cells;
           ++i) {
        if (rng.NextBool(0.2)) cells.push_back(cells[i]);
      }
      for (size_t i = cells.size(); i > 1; --i) {
        std::swap(cells[i - 1], cells[rng.NextBounded(i)]);
      }
      const auto admit = [&listed](CellId cell) {
        return listed[static_cast<size_t>(cell)] != 0;
      };
      const Point origin{lattice(), lattice()};
      const double max_distance = rng.NextDouble(5.0, 90.0);
      const double query_time = static_cast<double>(rng.NextBounded(12));
      StartWindow window;
      if (rng.NextBool(0.5)) {
        window.lo = static_cast<double>(rng.NextBounded(8));
        window.hi = window.lo + static_cast<double>(rng.NextBounded(6));
      }
      const int64_t parity = static_cast<int64_t>(rng.NextBounded(3));
      const auto filter = [parity](const RetrievalCandidate& e, double) {
        return e.id % 3 != parity;
      };
      for (const size_t k : {size_t{1}, size_t{8}}) {
        const std::string label = "seed " + std::to_string(seed) +
                                  " query " + std::to_string(q) +
                                  " k=" + std::to_string(k);
        const std::vector<ScoredCandidate> walked = ring.TopK(
            origin, max_distance, k, query_time, window, admit, filter);
        const auto& got = list.TopK(origin, max_distance, k, query_time,
                                    window, cells, filter);
        ExpectSameHits(got, walked, label + " vs ring walk");
        ExpectSameHits(
            got,
            OracleTopK(store, origin, max_distance, k, query_time, window,
                       [&](const RetrievalCandidate& e, double d) {
                         return admit(grid.CellOf(e.location)) &&
                                filter(e, d);
                       }),
            label + " vs oracle");
      }
    }
    // Both queries scan only listed cells.
    EXPECT_LE(list_stats.cells_visited, ring_stats.cells_visited);
  }
}

TEST(CandidateCursorTest, ForEachInDiskMatchesOracleAsASet) {
  Rng rng(2024);
  CandidateStore store(MakeGrid());
  for (int64_t id = 0; id < 200; ++id) {
    store.Insert(Entry(id, rng.NextDouble(0.0, 100.0),
                       rng.NextDouble(0.0, 100.0),
                       rng.NextDouble(0.0, 10.0),
                       rng.NextDouble(5.0, 20.0)));
  }
  const Point origin{33.0, 61.0};
  const double radius = 25.0;
  const double query_time = 8.0;
  const StartWindow window{2.0, 9.0};
  CandidateCursor cursor(&store, nullptr);
  std::vector<int64_t> got;
  cursor.ForEachInDisk(origin, radius, query_time, window,
                       [&](const RetrievalCandidate& e, double) {
                         got.push_back(e.id);
                       });
  std::sort(got.begin(), got.end());
  std::vector<int64_t> want;
  store.ForEach([&](const RetrievalCandidate& e) {
    if (e.start < window.lo || e.start > window.hi) return;
    if (e.deadline < query_time) return;
    if (Distance(origin, e.location) > radius) return;
    want.push_back(e.id);
  });
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(want.empty());  // The sweep actually exercised something.
}

// Randomized oracle equivalence over adversarial histories: interleaved
// inserts/erases/overwrites, boundary-sitting points, degenerate windows,
// and every k from 1 to a dozen. Runs once in the main suite and at
// FTOA_STRESS_ITERS scale under `ctest -L stress`.
TEST(CandidateEngineStress, TopKMatchesLinearOracle) {
  const int iterations = StressIterations(30);
  for (int iter = 0; iter < iterations; ++iter) {
    Rng rng(static_cast<uint64_t>(iter) * 0x9e3779b97f4a7c15ULL + 11);
    const GridSpec grid(100.0, 100.0,
                        2 + static_cast<int>(rng.NextBounded(12)),
                        2 + static_cast<int>(rng.NextBounded(12)));
    CandidateStore store(grid);
    RetrievalStats stats;
    CandidateCursor cursor(&store, &stats);
    int64_t next_id = 0;
    std::vector<int64_t> live;
    const int ops = 300 + static_cast<int>(rng.NextBounded(300));
    for (int op = 0; op < ops; ++op) {
      const double roll = rng.NextDouble();
      if (roll < 0.55 || live.empty()) {
        // Insert; a tenth of the points sit exactly on cell boundaries.
        double x = rng.NextDouble(0.0, 100.0);
        double y = rng.NextDouble(0.0, 100.0);
        if (rng.NextBool(0.1)) {
          x = grid.cell_width() * std::floor(x / grid.cell_width());
        }
        const double start = rng.NextDouble(0.0, 20.0);
        store.Insert(Entry(next_id, x, y, start,
                           start + rng.NextDouble(0.0, 10.0)));
        live.push_back(next_id);
        ++next_id;
      } else if (roll < 0.75) {
        const size_t pick = rng.NextBounded(live.size());
        store.Erase(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else if (roll < 0.85) {
        // Overwrite a live id at a new location/time.
        const int64_t id = live[rng.NextBounded(live.size())];
        const double start = rng.NextDouble(0.0, 20.0);
        store.Insert(Entry(id, rng.NextDouble(0.0, 100.0),
                           rng.NextDouble(0.0, 100.0), start,
                           start + rng.NextDouble(0.0, 10.0)));
      } else {
        const Point origin{rng.NextDouble(-5.0, 105.0),
                           rng.NextDouble(-5.0, 105.0)};
        const double max_distance = rng.NextDouble(0.0, 60.0);
        const size_t k = 1 + rng.NextBounded(12);
        const double query_time = rng.NextDouble(0.0, 25.0);
        StartWindow window;
        if (rng.NextBool(0.7)) {
          window.lo = rng.NextDouble(0.0, 20.0);
          window.hi = window.lo + rng.NextDouble(0.0, 10.0);
        }
        const int64_t parity = static_cast<int64_t>(rng.NextBounded(2));
        const auto filter = [parity](const RetrievalCandidate& e, double) {
          return (e.id % 2) == parity;
        };
        const auto& got = cursor.TopK(origin, max_distance, k, query_time,
                                      window, filter);
        const auto want = OracleTopK(store, origin, max_distance, k,
                                     query_time, window, filter);
        ExpectSameHits(got, want,
                       "iter " + std::to_string(iter) + " op " +
                           std::to_string(op));
      }
    }
    EXPECT_EQ(store.size(), live.size());
    EXPECT_GT(stats.queries, 0);
  }
}

// A cell whose entries are all tombstones is skipped like an empty one by
// every walk: no bound, no binary search, not counted as visited.
TEST(CandidateCursorTest, TombstoneOnlyCellsAreNotVisited) {
  CandidateStore store(MakeGrid());
  // Three erased entries stay as tombstones (too few to compact).
  for (int64_t id = 0; id < 3; ++id) {
    store.Insert(Entry(id, 5.0, 5.0 + static_cast<double>(id), 0.0, 10.0));
  }
  for (int64_t id = 0; id < 3; ++id) ASSERT_TRUE(store.Erase(id));
  store.Insert(Entry(3, 15.0, 5.0, 0.0, 10.0));
  const CellId origin_cell = store.grid().CellOf({5.0, 5.0});
  ASSERT_EQ(store.bucket(origin_cell).size(), 3u);
  EXPECT_EQ(store.live(origin_cell), 0);

  RetrievalStats stats;
  CandidateCursor cursor(&store, &stats);
  EXPECT_EQ(
      cursor.Nearest({5.0, 5.0}, 50.0, 0.0, StartWindow{}, AcceptAll).id, 3);
  EXPECT_EQ(stats.cells_visited, 1);
  const std::vector<CellId> cells = {origin_cell,
                                     store.grid().CellOf({15.0, 5.0})};
  const auto& hits = cursor.TopK({5.0, 5.0}, 50.0, 1, 0.0, StartWindow{},
                                 cells, AcceptAll);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].candidate.id, 3);
  EXPECT_EQ(stats.cells_visited, 2);
  int found = 0;
  cursor.ForEachInDisk({5.0, 5.0}, 50.0, 0.0, StartWindow{},
                       [&](const RetrievalCandidate&, double) { ++found; });
  EXPECT_EQ(found, 1);
  EXPECT_EQ(stats.cells_visited, 3);
}

// The live-count oracle: after a random history of inserts, erases,
// overwrites and expiries, every cell's count equals a recount of its
// bucket's non-tombstone entries, and the counts sum to size().
TEST(CandidateStoreTest, LiveCountsMatchRecountAfterRandomHistory) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed * 104729 + 17);
    EngineWaitingPool pool(MakeGrid(), nullptr);
    const CandidateStore& store = pool.store();
    double now = 0.0;
    for (int op = 0; op < 3000; ++op) {
      const double roll = rng.NextDouble();
      const int64_t id = static_cast<int64_t>(rng.NextBounded(300));
      if (roll < 0.55) {
        // Lattice points: many entries share a cell; starts around now.
        const double start = now + rng.NextDouble(-2.0, 2.0);
        pool.Insert(id, {5.0 * static_cast<double>(rng.NextBounded(21)),
                         5.0 * static_cast<double>(rng.NextBounded(21))},
                    start, start + rng.NextDouble(0.0, 6.0));
      } else if (roll < 0.8) {
        pool.Erase(id);
      } else {
        now += rng.NextDouble(0.0, 0.5);
        pool.ExpireBefore(now);
      }
      if (op % 100 != 99) continue;
      size_t total = 0;
      for (CellId cell = 0; cell < store.grid().num_cells(); ++cell) {
        int32_t recount = 0;
        for (const RetrievalCandidate& entry : store.bucket(cell)) {
          if (entry.id >= 0) ++recount;
        }
        ASSERT_EQ(store.live(cell), recount)
            << "seed " << seed << " op " << op << " cell " << cell;
        total += static_cast<size_t>(recount);
      }
      ASSERT_EQ(total, store.size()) << "seed " << seed << " op " << op;
    }
  }
}

// ExpireBefore's contract: strict `<`, like the queries' deadline prune, so
// an entry whose deadline equals `now` stays stored and matchable.
TEST(EngineWaitingPoolTest, ExpireBeforeKeepsDeadlineEqualToNow) {
  RetrievalStats stats;
  EngineWaitingPool pool(MakeGrid(), &stats);
  pool.Insert(1, {5.0, 5.0}, 0.0, 3.0);
  pool.Insert(2, {6.0, 5.0}, 0.0, 2.999);
  pool.Insert(3, {7.0, 5.0}, 0.0, 8.0);
  pool.ExpireBefore(3.0);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(pool.Nearest({5.0, 5.0}, 50.0, 3.0, StartWindow{},
                         [](int64_t, double) { return true; }),
            1);
  pool.ExpireBefore(3.0);  // Same instant again: nothing more goes.
  EXPECT_TRUE(pool.Contains(1));
  pool.ExpireBefore(std::nextafter(3.0, 4.0));
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_EQ(stats.expired, 2);
}

// Heap records outlive their entries: an id erased since (matched) is
// skipped, and an id re-inserted with another deadline goes at its own.
TEST(EngineWaitingPoolTest, ExpireBeforeFollowsErasedAndReinsertedIds) {
  RetrievalStats stats;
  EngineWaitingPool pool(MakeGrid(), &stats);
  pool.ExpireBefore(0.0);
  pool.Insert(1, {5.0, 5.0}, 0.0, 2.0);
  pool.Insert(2, {6.0, 5.0}, 0.0, 2.0);
  pool.Insert(3, {7.0, 5.0}, 0.0, 9.0);
  ASSERT_TRUE(pool.Erase(2));
  pool.Insert(1, {5.0, 6.0}, 1.0, 6.0);  // Later deadline.
  pool.Insert(3, {7.0, 6.0}, 1.0, 4.0);  // Earlier deadline.
  pool.ExpireBefore(5.0);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_FALSE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(3));
  EXPECT_EQ(stats.expired, 1);
  pool.ExpireBefore(10.0);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(stats.expired, 2);
}

// The first call queues what the pool already holds.
TEST(EngineWaitingPoolTest, FirstExpireBeforeCoversEarlierInserts) {
  EngineWaitingPool pool(MakeGrid(), nullptr);
  pool.Insert(4, {5.0, 5.0}, 0.0, 1.0);
  pool.Insert(5, {6.0, 5.0}, 0.0, 7.0);
  pool.ExpireBefore(2.0);
  EXPECT_FALSE(pool.Contains(4));
  EXPECT_TRUE(pool.Contains(5));
  pool.Insert(6, {7.0, 5.0}, 2.0, 3.0);
  pool.ExpireBefore(4.0);
  EXPECT_FALSE(pool.Contains(6));
  EXPECT_TRUE(pool.Contains(5));
}

TEST(CandidateStoreDeathTest, NegativeIdAborts) {
  CandidateStore store(MakeGrid());
  EXPECT_DEATH(store.Insert(Entry(-1, 5.0, 5.0, 0.0, 1.0)),
               "id -1 is not a dense non-negative instance id");
}

}  // namespace
}  // namespace ftoa
