// POLAR-OP and POLAR-OP+G against the vector-queue reference sessions
// (tests/oracles/vector_queue_polar_op): the intrusive node wait lists and
// the guide's per-type node ranges must commit the same pairs, at the same
// times, with the same dispatches and ignored counts, on seeded synthetic
// streams. The sweep covers liveness checks on and off, guides predicted
// from fewer and from more objects than arrive (deep wait lists, spare
// nodes), and a mid-stream SwapGuide; a hand-built stream pins
// POLAR-OP+G's fallback taking an entry that is still on a node's list.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/guide_generator.h"
#include "core/hybrid_polar_op.h"
#include "core/polar_op.h"
#include "core/prediction_matrix.h"
#include "model/arrival_stream.h"
#include "oracles/vector_queue_polar_op.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::AllArrivalPatterns;
using ftoa::testing::ArrivalPattern;
using ftoa::testing::ArrivalPatternName;
using ftoa::testing::ExpectIdenticalRun;
using ftoa::testing::MakeFuzzInstance;

/// The kAuto guide of `predicted`'s realized counts, with the durations of
/// `served` (all fuzz instances share one spacetime).
std::shared_ptr<const OfflineGuide> GuideFrom(const Instance& predicted,
                                              const Instance& served) {
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = served.MaxWorkerDuration();
  options.task_duration = served.MaxTaskDuration();
  auto guide = GuideGenerator(served.velocity(), options)
                   .Generate(PredictionMatrix::FromInstance(predicted));
  EXPECT_TRUE(guide.ok()) << guide.status().ToString();
  return std::make_shared<const OfflineGuide>(std::move(*guide));
}

/// Feeds `instance`'s arrival stream; before event `swap_at` (when >= 0)
/// the session advances to that event's time and adopts `swap_to`.
SessionResult Feed(OnlineAlgorithm& algorithm, const Instance& instance,
                   int64_t swap_at,
                   const std::shared_ptr<const OfflineGuide>& swap_to) {
  auto session = algorithm.StartSession(instance);
  const std::vector<ArrivalEvent> stream = BuildArrivalStream(instance);
  for (size_t i = 0; i < stream.size(); ++i) {
    const ArrivalEvent& event = stream[i];
    if (static_cast<int64_t>(i) == swap_at) {
      session->AdvanceTo(event.time);
      EXPECT_TRUE(session->SwapGuide(swap_to));
    }
    if (event.kind == ObjectKind::kWorker) {
      session->OnWorker(event.index, event.time);
    } else {
      session->OnTask(event.index, event.time);
    }
  }
  return session->Finish();
}

struct Scenario {
  std::string label;
  Instance instance;
  std::shared_ptr<const OfflineGuide> guide;
  int64_t swap_at = -1;
  std::shared_ptr<const OfflineGuide> swap_to;
};

/// Per seed and arrival pattern: guides from the stream itself, from a
/// sparser and from a denser universe, each with and without a swap to
/// another guide halfway through the stream.
std::vector<Scenario> Scenarios() {
  std::vector<Scenario> scenarios;
  for (const ArrivalPattern pattern : AllArrivalPatterns()) {
    for (uint64_t seed = 1; seed <= 6; ++seed) {
      const Instance served = MakeFuzzInstance(seed, pattern, 120, 120);
      const Instance sparse =
          MakeFuzzInstance(seed + 100, ArrivalPattern::kShuffledIds, 25, 30);
      const Instance dense =
          MakeFuzzInstance(seed + 200, ArrivalPattern::kShuffledIds, 200, 180);
      const std::vector<std::pair<std::string, std::shared_ptr<
                                                   const OfflineGuide>>>
          guides = {{"own", GuideFrom(served, served)},
                    {"sparse", GuideFrom(sparse, served)},
                    {"dense", GuideFrom(dense, served)}};
      const int64_t half =
          static_cast<int64_t>(served.num_workers() + served.num_tasks()) / 2;
      for (size_t g = 0; g < guides.size(); ++g) {
        const std::string base = std::string(ArrivalPatternName(pattern)) +
                                 " seed " + std::to_string(seed) + " " +
                                 guides[g].first;
        scenarios.push_back({base, served, guides[g].second, -1, nullptr});
        const auto& next = guides[(g + 1) % guides.size()];
        scenarios.push_back({base + " swap to " + next.first, served,
                             guides[g].second, half, next.second});
      }
    }
  }
  return scenarios;
}

TEST(WaitListOracleTest, PolarOpMatchesVectorQueueSessions) {
  int64_t matched = 0;
  int64_t liveness_changes = 0;
  for (const Scenario& s : Scenarios()) {
    int64_t size_without_liveness = -1;
    for (const bool liveness : {false, true}) {
      const std::string label =
          s.label + (liveness ? " liveness" : " guide-trust");
      PolarOptions options;
      options.check_liveness = liveness;
      PolarOp production(s.guide, options);
      testing::VectorQueuePolarOp oracle(s.guide, options);
      const SessionResult got =
          Feed(production, s.instance, s.swap_at, s.swap_to);
      const SessionResult want =
          Feed(oracle, s.instance, s.swap_at, s.swap_to);
      ExpectIdenticalRun(got.assignment, got.trace, want.assignment,
                         want.trace, label);
      if (::testing::Test::HasFailure()) return;
      matched += static_cast<int64_t>(got.assignment.size());
      const auto size = static_cast<int64_t>(got.assignment.size());
      if (liveness) {
        liveness_changes += size != size_without_liveness;
      } else {
        size_without_liveness = size;
      }
    }
  }
  // The sweep exercises the matching path, and liveness discards matter.
  EXPECT_GT(matched, 0);
  EXPECT_GT(liveness_changes, 0);
}

TEST(WaitListOracleTest, HybridPolarOpMatchesVectorQueueSessions) {
  int64_t matched = 0;
  for (const Scenario& s : Scenarios()) {
    for (const bool liveness : {false, true}) {
      const std::string label =
          s.label + (liveness ? " liveness" : " guide-trust");
      PolarOptions options;
      options.check_liveness = liveness;
      HybridPolarOp production(s.guide, options);
      testing::VectorQueueHybridPolarOp oracle(s.guide, options);
      const SessionResult got =
          Feed(production, s.instance, s.swap_at, s.swap_to);
      const SessionResult want =
          Feed(oracle, s.instance, s.swap_at, s.swap_to);
      ExpectIdenticalRun(got.assignment, got.trace, want.assignment,
                         want.trace, label);
      if (::testing::Test::HasFailure()) return;
      matched += static_cast<int64_t>(got.assignment.size());
    }
  }
  EXPECT_GT(matched, 0);
}

TEST(WaitListOracleTest, HybridSkipsQueuedEntryTheFallbackTook) {
  // Two areas, one slot. The guide pairs area-0 worker node A with area-0
  // task node X; area-1 worker node B is unmatched.
  const SpacetimeSpec st(SlotSpec(10.0, 1), GridSpec(4.0, 2.0, 2, 1));
  auto guide = std::make_shared<OfflineGuide>(st, 1.0, 8.0, 8.0);
  const GuideNodeId a = guide->AddWorkerNode(st.TypeAt(0, 0));
  guide->AddWorkerNode(st.TypeAt(0, 1));
  const GuideNodeId x = guide->AddTaskNode(st.TypeAt(0, 0));
  ASSERT_TRUE(guide->MatchNodes(a, x).ok());

  // r0 queues at X; w0 (area 1, node B) takes r0 through the fallback
  // while r0 is still on X's list; r1 queues behind it; w1 (node A) must
  // skip r0 and take r1; w2 then finds X's list empty.
  std::vector<Worker> workers(3);
  workers[0] = {0, {3.0, 1.0}, 2.0, 8.0};
  workers[1] = {1, {1.0, 1.0}, 4.0, 8.0};
  workers[2] = {2, {1.0, 1.0}, 5.0, 8.0};
  std::vector<Task> tasks(2);
  tasks[0] = {0, {1.0, 1.0}, 1.0, 8.0};
  tasks[1] = {1, {1.0, 1.0}, 3.0, 8.0};
  const Instance instance(st, 1.0, std::move(workers), std::move(tasks));

  for (const bool liveness : {false, true}) {
    PolarOptions options;
    options.check_liveness = liveness;
    HybridPolarOp production(guide, options);
    testing::VectorQueueHybridPolarOp oracle(guide, options);
    const SessionResult got = Feed(production, instance, -1, nullptr);
    const SessionResult want = Feed(oracle, instance, -1, nullptr);
    ExpectIdenticalRun(got.assignment, got.trace, want.assignment, want.trace,
                       liveness ? "liveness" : "guide-trust");
    const std::vector<MatchedPair>& pairs = got.assignment.pairs();
    ASSERT_EQ(pairs.size(), 2u);
    EXPECT_EQ(pairs[0].worker, 0);
    EXPECT_EQ(pairs[0].task, 0);
    EXPECT_EQ(pairs[0].time, 2.0);
    EXPECT_EQ(pairs[1].worker, 1);
    EXPECT_EQ(pairs[1].task, 1);
    EXPECT_EQ(pairs[1].time, 4.0);
  }
}

}  // namespace
}  // namespace ftoa
