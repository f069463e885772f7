#include "flow/dynamic_matching.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "flow/hopcroft_karp.h"
#include "test_util.h"
#include "util/rng.h"

namespace ftoa {
namespace {

TEST(DynamicMatchingTest, MatchesSimplePairs) {
  DynamicBipartiteMatcher m;
  const int32_t l0 = m.AddLeft();
  const int32_t l1 = m.AddLeft();
  const int32_t r0 = m.AddRight();
  const int32_t r1 = m.AddRight();
  m.AddEdge(l0, r0);
  m.AddEdge(l1, r0);
  m.AddEdge(l1, r1);
  EXPECT_TRUE(m.TryAugmentLeft(l0));
  EXPECT_TRUE(m.TryAugmentLeft(l1));
  EXPECT_EQ(m.matching_size(), 2);
  EXPECT_EQ(m.MatchOfLeft(l0), r0);
  EXPECT_EQ(m.MatchOfLeft(l1), r1);
}

TEST(DynamicMatchingTest, AugmentReroutesExistingMatches) {
  // l1 can only take r0; l0 must be re-routed to r1 through the
  // alternating path.
  DynamicBipartiteMatcher m;
  const int32_t l0 = m.AddLeft();
  const int32_t l1 = m.AddLeft();
  const int32_t r0 = m.AddRight();
  const int32_t r1 = m.AddRight();
  m.AddEdge(l0, r0);
  m.AddEdge(l0, r1);
  m.AddEdge(l1, r0);
  EXPECT_TRUE(m.TryAugmentLeft(l0));
  EXPECT_EQ(m.MatchOfLeft(l0), r0);
  EXPECT_TRUE(m.TryAugmentLeft(l1));
  EXPECT_EQ(m.MatchOfLeft(l1), r0);
  EXPECT_EQ(m.MatchOfLeft(l0), r1);
  EXPECT_EQ(m.matching_size(), 2);
}

TEST(DynamicMatchingTest, RemoveRepairsMaximality) {
  // Removing a matched node releases its partner, and the repair
  // augmentation re-matches the partner when possible.
  DynamicBipartiteMatcher m;
  const int32_t l0 = m.AddLeft();
  const int32_t l1 = m.AddLeft();
  const int32_t r0 = m.AddRight();
  m.AddEdge(l0, r0);
  m.AddEdge(l1, r0);
  EXPECT_TRUE(m.TryAugmentLeft(l0));
  EXPECT_FALSE(m.TryAugmentLeft(l1));  // r0 taken, no augmenting path.
  m.RemoveLeft(l0);
  // The repair from r0 must have re-matched it to l1.
  EXPECT_EQ(m.matching_size(), 1);
  EXPECT_EQ(m.MatchOfRight(r0), l1);
}

TEST(DynamicMatchingTest, RemovePairCommitsBothSides) {
  DynamicBipartiteMatcher m;
  const int32_t l0 = m.AddLeft();
  const int32_t r0 = m.AddRight();
  m.AddEdge(l0, r0);
  EXPECT_TRUE(m.TryAugmentLeft(l0));
  m.RemovePair(l0, r0);
  EXPECT_EQ(m.matching_size(), 0);
  EXPECT_FALSE(m.LeftActive(l0));
  EXPECT_FALSE(m.RightActive(r0));
}

TEST(DynamicMatchingTest, TryAugmentRightMirrorsLeft) {
  DynamicBipartiteMatcher m;
  const int32_t l0 = m.AddLeft();
  const int32_t r0 = m.AddRight();
  const int32_t r1 = m.AddRight();
  m.AddEdge(l0, r0);
  m.AddEdge(l0, r1);
  EXPECT_TRUE(m.TryAugmentRight(r0));
  EXPECT_EQ(m.MatchOfRight(r0), l0);
  EXPECT_FALSE(m.TryAugmentRight(r1));  // l0 taken, no alternative.
}

TEST(DynamicMatchingTest, ResetClearsState) {
  DynamicBipartiteMatcher m;
  m.AddLeft();
  m.AddRight();
  m.AddEdge(0, 0);
  EXPECT_TRUE(m.TryAugmentLeft(0));
  m.Reset();
  EXPECT_EQ(m.matching_size(), 0);
  EXPECT_EQ(m.num_left(), 0);
  EXPECT_EQ(m.num_right(), 0);
  EXPECT_EQ(m.num_edges(), 0u);
}

// Property: incrementally inserting all nodes/edges and augmenting from
// each left reaches the same maximum cardinality as Hopcroft-Karp on the
// same bipartite graph.
class DynamicMatchingPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicMatchingPropertyTest, CardinalityMatchesHopcroftKarp) {
  Rng rng(GetParam() * 2654435761u + 17);
  const int32_t num_left = 5 + static_cast<int32_t>(rng.NextBounded(25));
  const int32_t num_right = 5 + static_cast<int32_t>(rng.NextBounded(25));

  DynamicBipartiteMatcher dynamic;
  HopcroftKarp hk(num_left, num_right);
  for (int32_t l = 0; l < num_left; ++l) dynamic.AddLeft();
  for (int32_t r = 0; r < num_right; ++r) dynamic.AddRight();
  for (int32_t l = 0; l < num_left; ++l) {
    for (int32_t r = 0; r < num_right; ++r) {
      if (rng.NextBool(0.15)) {
        dynamic.AddEdge(l, r);
        hk.AddEdge(l, r);
      }
    }
  }
  for (int32_t l = 0; l < num_left; ++l) dynamic.TryAugmentLeft(l);
  EXPECT_EQ(dynamic.matching_size(), hk.Solve());
}

TEST_P(DynamicMatchingPropertyTest, RemovalKeepsMaximality) {
  // After random node removals, the maintained matching must still equal
  // a from-scratch maximum matching over the surviving subgraph.
  Rng rng(GetParam() * 40503 + 3);
  const int32_t num_left = 5 + static_cast<int32_t>(rng.NextBounded(20));
  const int32_t num_right = 5 + static_cast<int32_t>(rng.NextBounded(20));
  DynamicBipartiteMatcher dynamic;
  std::vector<std::pair<int32_t, int32_t>> edges;
  for (int32_t l = 0; l < num_left; ++l) dynamic.AddLeft();
  for (int32_t r = 0; r < num_right; ++r) dynamic.AddRight();
  for (int32_t l = 0; l < num_left; ++l) {
    for (int32_t r = 0; r < num_right; ++r) {
      if (rng.NextBool(0.2)) {
        dynamic.AddEdge(l, r);
        edges.emplace_back(l, r);
      }
    }
  }
  for (int32_t l = 0; l < num_left; ++l) dynamic.TryAugmentLeft(l);

  for (int32_t l = 0; l < num_left; ++l) {
    if (rng.NextBool(0.3)) dynamic.RemoveLeft(l);
  }
  for (int32_t r = 0; r < num_right; ++r) {
    if (rng.NextBool(0.3)) dynamic.RemoveRight(r);
  }

  // From-scratch reference over the survivors.
  HopcroftKarp hk(num_left, num_right);
  for (const auto& [l, r] : edges) {
    if (dynamic.LeftActive(l) && dynamic.RightActive(r)) hk.AddEdge(l, r);
  }
  EXPECT_EQ(dynamic.matching_size(), hk.Solve());

  // The maintained matching itself must be consistent and edge-valid.
  int64_t matched = 0;
  for (int32_t l = 0; l < num_left; ++l) {
    const int32_t r = dynamic.LeftActive(l) ? dynamic.MatchOfLeft(l) : -1;
    if (r < 0) continue;
    ++matched;
    EXPECT_TRUE(dynamic.RightActive(r));
    EXPECT_EQ(dynamic.MatchOfRight(r), l);
    EXPECT_TRUE(std::count(edges.begin(), edges.end(),
                           std::make_pair(l, r)) > 0);
  }
  EXPECT_EQ(matched, dynamic.matching_size());
}

// Reference for the shared visit stamp: Kuhn's DFS with a fresh visited
// set per search, over the same insertion-ordered edge lists, with the
// matcher's removal semantics. Stamp sharing may only prune nodes a failed
// search proved dead, so the matcher must reach this exact matching, not
// just its cardinality.
class FreshStampKuhn {
 public:
  int32_t AddLeft() {
    left_edges_.emplace_back();
    match_left_.push_back(-1);
    active_left_.push_back(true);
    return static_cast<int32_t>(match_left_.size()) - 1;
  }
  int32_t AddRight() {
    right_edges_.emplace_back();
    match_right_.push_back(-1);
    active_right_.push_back(true);
    return static_cast<int32_t>(match_right_.size()) - 1;
  }
  void AddEdge(int32_t l, int32_t r) {
    left_edges_[static_cast<size_t>(l)].push_back(r);
    right_edges_[static_cast<size_t>(r)].push_back(l);
  }
  bool TryAugmentLeft(int32_t l) {
    if (match_left_[static_cast<size_t>(l)] >= 0) return false;
    visited_.assign(match_right_.size(), false);
    return FromLeft(l);
  }
  bool TryAugmentRight(int32_t r) {
    if (match_right_[static_cast<size_t>(r)] >= 0) return false;
    visited_.assign(match_left_.size(), false);
    return FromRight(r);
  }
  void RemoveLeft(int32_t l) {
    if (!active_left_[static_cast<size_t>(l)]) return;
    active_left_[static_cast<size_t>(l)] = false;
    const int32_t r = match_left_[static_cast<size_t>(l)];
    if (r < 0) return;
    match_left_[static_cast<size_t>(l)] = -1;
    match_right_[static_cast<size_t>(r)] = -1;
    TryAugmentRight(r);
  }
  void RemoveRight(int32_t r) {
    if (!active_right_[static_cast<size_t>(r)]) return;
    active_right_[static_cast<size_t>(r)] = false;
    const int32_t l = match_right_[static_cast<size_t>(r)];
    if (l < 0) return;
    match_right_[static_cast<size_t>(r)] = -1;
    match_left_[static_cast<size_t>(l)] = -1;
    TryAugmentLeft(l);
  }
  void RemovePair(int32_t l, int32_t r) {
    match_left_[static_cast<size_t>(l)] = -1;
    match_right_[static_cast<size_t>(r)] = -1;
    active_left_[static_cast<size_t>(l)] = false;
    active_right_[static_cast<size_t>(r)] = false;
  }
  int32_t MatchOfLeft(int32_t l) const {
    return match_left_[static_cast<size_t>(l)];
  }
  int32_t MatchOfRight(int32_t r) const {
    return match_right_[static_cast<size_t>(r)];
  }

 private:
  bool FromLeft(int32_t l) {
    for (const int32_t r : left_edges_[static_cast<size_t>(l)]) {
      if (!active_right_[static_cast<size_t>(r)] ||
          visited_[static_cast<size_t>(r)]) {
        continue;
      }
      visited_[static_cast<size_t>(r)] = true;
      const int32_t w = match_right_[static_cast<size_t>(r)];
      if (w < 0 || FromLeft(w)) {
        match_left_[static_cast<size_t>(l)] = r;
        match_right_[static_cast<size_t>(r)] = l;
        return true;
      }
    }
    return false;
  }
  bool FromRight(int32_t r) {
    for (const int32_t l : right_edges_[static_cast<size_t>(r)]) {
      if (!active_left_[static_cast<size_t>(l)] ||
          visited_[static_cast<size_t>(l)]) {
        continue;
      }
      visited_[static_cast<size_t>(l)] = true;
      const int32_t w = match_left_[static_cast<size_t>(l)];
      if (w < 0 || FromRight(w)) {
        match_right_[static_cast<size_t>(r)] = l;
        match_left_[static_cast<size_t>(l)] = r;
        return true;
      }
    }
    return false;
  }

  std::vector<std::vector<int32_t>> left_edges_, right_edges_;
  std::vector<int32_t> match_left_, match_right_;
  std::vector<bool> active_left_, active_right_;
  std::vector<bool> visited_;
};

TEST_P(DynamicMatchingPropertyTest, SharedStampFindsTheFreshStampMatching) {
  // Batches shaped like GR's windows and TGOA's arrivals: edges first,
  // then runs of augmentations from both sides (most of them failing),
  // interleaved with removals and committed pairs.
  Rng rng(GetParam() * 7919 + 11);
  DynamicBipartiteMatcher matcher;
  FreshStampKuhn reference;
  for (int batch = 0; batch < 12; ++batch) {
    std::vector<int32_t> new_left, new_right;
    const int arrivals = 3 + static_cast<int>(rng.NextBounded(10));
    for (int i = 0; i < arrivals; ++i) {
      if (rng.NextBool()) {
        new_left.push_back(matcher.AddLeft());
        reference.AddLeft();
      } else {
        new_right.push_back(matcher.AddRight());
        reference.AddRight();
      }
    }
    const auto link = [&](int32_t l, int32_t r) {
      if (matcher.LeftActive(l) && matcher.RightActive(r) &&
          rng.NextBool(0.12)) {
        matcher.AddEdge(l, r);
        reference.AddEdge(l, r);
      }
    };
    for (const int32_t l : new_left) {
      for (int32_t r = 0; r < matcher.num_right(); ++r) link(l, r);
    }
    for (const int32_t r : new_right) {
      for (int32_t l = 0; l < matcher.num_left(); ++l) {
        if (std::find(new_left.begin(), new_left.end(), l) == new_left.end()) {
          link(l, r);
        }
      }
    }
    for (int32_t l = 0; l < matcher.num_left(); ++l) {
      if (matcher.LeftActive(l)) {
        EXPECT_EQ(matcher.TryAugmentLeft(l), reference.TryAugmentLeft(l));
      }
    }
    for (int32_t r = 0; r < matcher.num_right(); ++r) {
      if (matcher.RightActive(r)) {
        EXPECT_EQ(matcher.TryAugmentRight(r), reference.TryAugmentRight(r));
      }
    }
    for (int32_t l = 0; l < matcher.num_left(); ++l) {
      if (!matcher.LeftActive(l)) continue;
      const int32_t r = matcher.MatchOfLeft(l);
      if (r >= 0 && rng.NextBool(0.2)) {
        matcher.RemovePair(l, r);
        reference.RemovePair(l, r);
      } else if (rng.NextBool(0.1)) {
        matcher.RemoveLeft(l);
        reference.RemoveLeft(l);
      }
    }
    for (int32_t r = 0; r < matcher.num_right(); ++r) {
      if (matcher.RightActive(r) && rng.NextBool(0.1)) {
        matcher.RemoveRight(r);
        reference.RemoveRight(r);
      }
    }
    for (int32_t l = 0; l < matcher.num_left(); ++l) {
      ASSERT_EQ(matcher.MatchOfLeft(l), reference.MatchOfLeft(l))
          << "batch " << batch << " left " << l;
    }
    for (int32_t r = 0; r < matcher.num_right(); ++r) {
      ASSERT_EQ(matcher.MatchOfRight(r), reference.MatchOfRight(r))
          << "batch " << batch << " right " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicMatchingPropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(DynamicMatchingDeathTest, EdgeIdsAbortBeforeTheyWrap) {
  // The guard itself, at the int32 boundary, without allocating 2^31
  // edges: an arena one short of it still has an id left, a full one not.
  DynamicBipartiteMatcher::CheckEdgeRoom(0);
  DynamicBipartiteMatcher::CheckEdgeRoom(DynamicBipartiteMatcher::kMaxEdges -
                                         1);
  EXPECT_DEATH(DynamicBipartiteMatcher::CheckEdgeRoom(
                   DynamicBipartiteMatcher::kMaxEdges),
               "2147483648 edges exceed int32 edge ids");
  EXPECT_EQ(DynamicBipartiteMatcher::kMaxEdges,
            static_cast<size_t>(std::numeric_limits<int32_t>::max()));
}

// Shard-routed usage, as the sharded dispatcher's per-shard batched
// baselines exercise it: each shard owns one long-lived incremental
// matcher arena, arrivals are routed to a shard and inserted with one
// augmenting search, departures are removed with one repair search — and
// after every batch each shard must agree with a from-scratch
// Hopcroft-Karp rebuild over its live subgraph. Runs at a small default
// iteration count; tools/run_stress.sh widens it via FTOA_STRESS_ITERS.
TEST(DynamicMatchingShardStressTest,
     PerShardIncrementalMatchesRebuildPerBatchReference) {
  const int iterations = ::ftoa::testing::StressIterations(5);
  Rng seeds(0xfeed5eedULL);
  for (int iter = 0; iter < iterations; ++iter) {
    Rng rng(seeds.Next());
    const int num_shards = 2 + static_cast<int>(rng.NextBounded(3));
    const int num_batches = 4 + static_cast<int>(rng.NextBounded(5));
    const double edge_prob = 0.1 + rng.NextDouble() * 0.2;

    struct Shard {
      DynamicBipartiteMatcher incremental;
      std::vector<std::pair<int32_t, int32_t>> edges;  // Shard-local ids.
    };
    std::vector<std::unique_ptr<Shard>> shards;
    for (int s = 0; s < num_shards; ++s) {
      shards.push_back(std::make_unique<Shard>());
    }

    for (int batch = 0; batch < num_batches; ++batch) {
      // Routed arrivals: every new node lands on one shard and matches
      // only within it (per-shard sessions never see foreign objects).
      const int arrivals = 2 + static_cast<int>(rng.NextBounded(9));
      for (int i = 0; i < arrivals; ++i) {
        Shard& shard = *shards[rng.NextBounded(shards.size())];
        DynamicBipartiteMatcher& m = shard.incremental;
        if (rng.NextBool()) {
          const int32_t l = m.AddLeft();
          for (int32_t r = 0; r < m.num_right(); ++r) {
            if (m.RightActive(r) && rng.NextBool(edge_prob)) {
              m.AddEdge(l, r);
              shard.edges.emplace_back(l, r);
            }
          }
          m.TryAugmentLeft(l);
        } else {
          const int32_t r = m.AddRight();
          for (int32_t l = 0; l < m.num_left(); ++l) {
            if (m.LeftActive(l) && rng.NextBool(edge_prob)) {
              m.AddEdge(l, r);
              shard.edges.emplace_back(l, r);
            }
          }
          m.TryAugmentRight(r);
        }
      }
      // Deadline expiry: random actives depart, one repair search each.
      for (auto& shard_ptr : shards) {
        DynamicBipartiteMatcher& m = shard_ptr->incremental;
        for (int32_t l = 0; l < m.num_left(); ++l) {
          if (m.LeftActive(l) && rng.NextBool(0.1)) m.RemoveLeft(l);
        }
        for (int32_t r = 0; r < m.num_right(); ++r) {
          if (m.RightActive(r) && rng.NextBool(0.1)) m.RemoveRight(r);
        }
      }
      // Rebuild-per-batch reference, per shard, over the live subgraph.
      for (size_t s = 0; s < shards.size(); ++s) {
        const Shard& shard = *shards[s];
        const DynamicBipartiteMatcher& m = shard.incremental;
        HopcroftKarp reference(m.num_left(), m.num_right());
        for (const auto& [l, r] : shard.edges) {
          if (m.LeftActive(l) && m.RightActive(r)) {
            reference.AddEdge(l, r);
          }
        }
        EXPECT_EQ(m.matching_size(), reference.Solve())
            << "iter " << iter << " batch " << batch << " shard " << s;
      }
    }
    // The incremental path must have worked augmentation-wise, not by
    // accident of empty shards.
    int64_t searches = 0;
    for (const auto& shard : shards) {
      searches += shard->incremental.augment_searches();
    }
    EXPECT_GT(searches, 0) << "iter " << iter;
  }
}

}  // namespace
}  // namespace ftoa
