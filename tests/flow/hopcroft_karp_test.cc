#include "flow/hopcroft_karp.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "flow/dinic.h"
#include "flow/graph.h"
#include "util/rng.h"

namespace ftoa {
namespace {

TEST(HopcroftKarpTest, PerfectMatchingOnCompleteBipartite) {
  HopcroftKarp hk(3, 3);
  for (int u = 0; u < 3; ++u) {
    for (int v = 0; v < 3; ++v) hk.AddEdge(u, v);
  }
  EXPECT_EQ(hk.Solve(), 3);
  for (int u = 0; u < 3; ++u) {
    const int v = hk.MatchOfLeft(u);
    ASSERT_GE(v, 0);
    EXPECT_EQ(hk.MatchOfRight(v), u);
  }
}

TEST(HopcroftKarpTest, NoEdgesNoMatching) {
  HopcroftKarp hk(4, 4);
  EXPECT_EQ(hk.Solve(), 0);
  EXPECT_EQ(hk.MatchOfLeft(0), -1);
}

TEST(HopcroftKarpTest, AugmentingPathRequired) {
  // Greedy left-to-right would match 0-0 and block 1; HK must augment.
  HopcroftKarp hk(2, 2);
  hk.AddEdge(0, 0);
  hk.AddEdge(0, 1);
  hk.AddEdge(1, 0);
  EXPECT_EQ(hk.Solve(), 2);
}

TEST(HopcroftKarpTest, UnbalancedSides) {
  HopcroftKarp hk(5, 2);
  for (int u = 0; u < 5; ++u) {
    hk.AddEdge(u, 0);
    hk.AddEdge(u, 1);
  }
  EXPECT_EQ(hk.Solve(), 2);
}

TEST(HopcroftKarpTest, SolveIsIdempotent) {
  HopcroftKarp hk(3, 3);
  hk.AddEdge(0, 1);
  hk.AddEdge(1, 1);
  hk.AddEdge(2, 2);
  const int64_t first = hk.Solve();
  EXPECT_EQ(first, 2);
  EXPECT_EQ(hk.Solve(), first);
}

TEST(HopcroftKarpTest, ChainGraph) {
  // Path structure: maximal matching is unique-size 3.
  HopcroftKarp hk(3, 3);
  hk.AddEdge(0, 0);
  hk.AddEdge(1, 0);
  hk.AddEdge(1, 1);
  hk.AddEdge(2, 1);
  hk.AddEdge(2, 2);
  EXPECT_EQ(hk.Solve(), 3);
}

// Property: matching size equals unit-capacity max flow on random graphs,
// and the matching is consistent (mutual, edges exist).
class HkPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HkPropertyTest, MatchesUnitCapacityMaxFlow) {
  Rng rng(GetParam());
  const int left = 1 + static_cast<int>(rng.NextBounded(15));
  const int right = 1 + static_cast<int>(rng.NextBounded(15));
  HopcroftKarp hk(left, right);
  std::vector<std::vector<bool>> adjacent(
      static_cast<size_t>(left), std::vector<bool>(right, false));

  const NodeId s = 0;
  const NodeId t = static_cast<NodeId>(1 + left + right);
  FlowGraph g(t + 1);
  for (int u = 0; u < left; ++u) g.AddEdge(s, 1 + u, 1);
  for (int v = 0; v < right; ++v) g.AddEdge(1 + left + v, t, 1);
  for (int u = 0; u < left; ++u) {
    for (int v = 0; v < right; ++v) {
      if (rng.NextBool(0.3)) {
        hk.AddEdge(u, v);
        g.AddEdge(1 + u, 1 + left + v, 1);
        adjacent[static_cast<size_t>(u)][static_cast<size_t>(v)] = true;
      }
    }
  }
  const int64_t matching = hk.Solve();
  const int64_t flow = DinicMaxFlow(&g, s, t);
  EXPECT_EQ(matching, flow);

  // Consistency of the reported matching.
  int64_t counted = 0;
  for (int u = 0; u < left; ++u) {
    const int v = hk.MatchOfLeft(u);
    if (v < 0) continue;
    ++counted;
    EXPECT_TRUE(adjacent[static_cast<size_t>(u)][static_cast<size_t>(v)]);
    EXPECT_EQ(hk.MatchOfRight(v), u);
  }
  EXPECT_EQ(counted, matching);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HkPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

TEST(HopcroftKarpTest, ResetReusesInstance) {
  HopcroftKarp hk(2, 2);
  hk.AddEdge(0, 0);
  hk.AddEdge(1, 1);
  EXPECT_EQ(hk.Solve(), 2);
  hk.Reset(3, 1);
  EXPECT_EQ(hk.num_edges(), 0u);
  hk.AddEdge(2, 0);
  EXPECT_EQ(hk.Solve(), 1);
  EXPECT_EQ(hk.MatchOfLeft(2), 0);
  EXPECT_EQ(hk.MatchOfLeft(0), -1);
}

TEST(HopcroftKarpTest, SolveIsIncrementalAcrossEdgeInsertions) {
  HopcroftKarp hk(2, 2);
  hk.AddEdge(0, 0);
  EXPECT_EQ(hk.Solve(), 1);
  hk.AddEdge(1, 1);
  EXPECT_EQ(hk.Solve(), 2);  // Prior matching kept, one augmentation.
  EXPECT_EQ(hk.MatchOfLeft(0), 0);
  EXPECT_EQ(hk.MatchOfLeft(1), 1);
}

// --- int32/int64 boundary hardening ---
//
// Matcher callers size their graphs from int64 counts, so an id that
// narrowed on the way in must die loudly at the API boundary instead of
// indexing out of bounds or wrapping a CSR offset (the PR 7
// stride-truncation bug class).

TEST(HopcroftKarpDeathTest, AddEdgeOutOfRangeAborts) {
  HopcroftKarp hk(3, 4);
  EXPECT_DEATH(hk.AddEdge(3, 0), "out of range");
  EXPECT_DEATH(hk.AddEdge(-1, 0), "out of range");
  EXPECT_DEATH(hk.AddEdge(0, 4), "out of range");
  EXPECT_DEATH(hk.AddEdge(0, -1), "out of range");
  // The canonical narrowing artifact: an int64 id truncated to a negative
  // or huge int32 lands far outside either side.
  EXPECT_DEATH(hk.AddEdge(std::numeric_limits<int32_t>::min(), 0),
               "out of range");
  EXPECT_DEATH(hk.AddEdge(0, std::numeric_limits<int32_t>::max()),
               "out of range");
}

TEST(HopcroftKarpDeathTest, NegativeSideSizeAborts) {
  EXPECT_DEATH(HopcroftKarp(-1, 2), "negative side size");
  EXPECT_DEATH(HopcroftKarp(2, -1), "negative side size");
  HopcroftKarp hk(2, 2);
  EXPECT_DEATH(hk.Reset(-5, 1), "negative side size");
}

TEST(HopcroftKarpTest, BoundaryIdsAtSideLimitsStayValid) {
  // Regression companion to the death tests: the largest valid ids on each
  // side must keep working — the guard is off-by-one-free.
  HopcroftKarp hk(3, 4);
  hk.AddEdge(2, 3);
  hk.AddEdge(0, 0);
  EXPECT_EQ(hk.Solve(), 2);
  EXPECT_EQ(hk.MatchOfLeft(2), 3);
  hk.Reset(1, 1);
  hk.AddEdge(0, 0);
  EXPECT_EQ(hk.Solve(), 1);
  EXPECT_EQ(hk.MatchOfLeft(0), 0);
}

}  // namespace
}  // namespace ftoa
