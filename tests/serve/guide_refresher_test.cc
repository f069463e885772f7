#include "serve/guide_refresher.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "test_util.h"

namespace ftoa {
namespace {

using ftoa::testing::MakeExample1Instance;

GuideOptions SmallGuideOptions() {
  GuideOptions options;
  options.worker_duration = 30.0;
  options.task_duration = 2.0;
  return options;
}

TEST(GuideSlotTest, PublishAdvancesEpochAndSnapshotIsConsistent) {
  GuideSlot slot;
  EXPECT_EQ(slot.epoch(), 0);
  EXPECT_EQ(slot.Get().guide, nullptr);

  const Instance instance = MakeExample1Instance();
  auto guide = std::make_shared<const OfflineGuide>(
      OfflineGuide(instance.spacetime(), 1.0, 30.0, 2.0));
  const GuideSlot::Snapshot published = slot.Publish(guide, 4);
  EXPECT_EQ(published.epoch, 1);
  EXPECT_EQ(published.published_window, 4);
  EXPECT_EQ(slot.Get().guide.get(), guide.get());

  slot.Publish(guide, 9);
  EXPECT_EQ(slot.epoch(), 2);
  EXPECT_EQ(slot.Get().published_window, 9);
}

TEST(GuideRefresherTest, RefreshNowPublishes) {
  const Instance instance = MakeExample1Instance();
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(),
                           GuideRefresher::Options{});
  GuideSlot slot;
  const auto snapshot = refresher.RefreshNow(
      PredictionMatrix::FromInstance(instance), /*window=*/3, &slot);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  EXPECT_EQ(snapshot.value().epoch, 1);
  EXPECT_NE(snapshot.value().guide, nullptr);
  EXPECT_GT(snapshot.value().guide->matched_pairs(), 0);
  EXPECT_EQ(refresher.stats().publishes, 1);
  EXPECT_EQ(refresher.stats().attempts, 1);
  EXPECT_EQ(refresher.stats().failed_cycles, 0);
}

TEST(GuideRefresherTest, InjectedFailureFailsWholeCycleAndKeepsSlot) {
  const Instance instance = MakeExample1Instance();
  auto faults = FaultInjector::Parse("guide-fail@5-5:count=1").value();
  GuideRefresher::Options options;
  options.max_attempts = 3;
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(), options,
                           &faults);
  GuideSlot slot;
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(instance);

  // Window 5 is poisoned: all 3 attempts fail, slot untouched.
  const auto failed = refresher.RefreshNow(prediction, 5, &slot);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInternal());
  EXPECT_NE(failed.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(slot.epoch(), 0);
  EXPECT_EQ(refresher.stats().attempts, 3);
  EXPECT_EQ(refresher.stats().failed_cycles, 1);

  // The fault count is consumed: the next cycle succeeds (degradation
  // recovers once the injected outage ends).
  const auto recovered = refresher.RefreshNow(prediction, 6, &slot);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(slot.epoch(), 1);
}

TEST(GuideRefresherMemoTest, UnchangedPredictionRepublishesTheSameGuide) {
  const Instance instance = MakeExample1Instance();
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(),
                           GuideRefresher::Options{});
  GuideSlot slot;
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(instance);
  const auto first = refresher.RefreshNow(prediction, 0, &slot);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(refresher.last_cycle().unchanged);

  const auto second = refresher.RefreshNow(prediction, 3, &slot);
  ASSERT_TRUE(second.ok()) << second.status();
  // Same guide object, new epoch and window: the harness still swaps it.
  EXPECT_EQ(second.value().guide.get(), first.value().guide.get());
  EXPECT_EQ(second.value().epoch, 2);
  EXPECT_EQ(slot.Get().published_window, 3);
  EXPECT_TRUE(refresher.last_cycle().unchanged);
  EXPECT_FALSE(refresher.last_cycle().refresh.warm);
  EXPECT_EQ(refresher.last_cycle().refresh.components_total, 0);
  EXPECT_GE(refresher.last_cycle().solve_ms, 0.0);
  EXPECT_EQ(refresher.stats().attempts, 2);
  EXPECT_EQ(refresher.stats().publishes, 2);
}

TEST(GuideRefresherMemoTest, ChangedCountOrSpacetimeForcesASolve) {
  const Instance instance = MakeExample1Instance();
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(),
                           GuideRefresher::Options{});
  GuideSlot slot;
  const PredictionMatrix base = PredictionMatrix::FromInstance(instance);
  const auto solved = refresher.RefreshNow(base, 0, &slot);
  ASSERT_TRUE(solved.ok()) << solved.status();

  // One type's task count moves by one.
  PredictionMatrix bumped = base;
  bumped.set_tasks_at(0, base.tasks_at(0) + 1);
  const auto after_bump = refresher.RefreshNow(bumped, 1, &slot);
  ASSERT_TRUE(after_bump.ok()) << after_bump.status();
  EXPECT_FALSE(refresher.last_cycle().unchanged);
  EXPECT_NE(after_bump.value().guide.get(), solved.value().guide.get());

  // Same counts over a stretched horizon: the slot midpoints move, so the
  // type-level deadline test may change.
  const SpacetimeSpec& st = base.spacetime();
  PredictionMatrix stretched(
      SpacetimeSpec(SlotSpec(2.0 * st.slots().horizon(), st.num_slots()),
                    st.grid()));
  for (TypeId type = 0; type < st.num_types(); ++type) {
    stretched.set_workers_at(type, bumped.workers_at(type));
    stretched.set_tasks_at(type, bumped.tasks_at(type));
  }
  const auto after_stretch = refresher.RefreshNow(stretched, 2, &slot);
  ASSERT_TRUE(after_stretch.ok()) << after_stretch.status();
  EXPECT_FALSE(refresher.last_cycle().unchanged);
  EXPECT_NE(after_stretch.value().guide.get(),
            after_bump.value().guide.get());
  EXPECT_EQ(refresher.stats().attempts, 3);
}

TEST(GuideRefresherMemoTest, InjectedFailureOnUnchangedPredictionStillFails) {
  const Instance instance = MakeExample1Instance();
  auto faults = FaultInjector::Parse("guide-fail@2-2:count=1").value();
  GuideRefresher::Options options;
  options.max_attempts = 3;
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(), options,
                           &faults);
  GuideSlot slot;
  const PredictionMatrix prediction =
      PredictionMatrix::FromInstance(instance);
  const auto solved = refresher.RefreshNow(prediction, 1, &slot);
  ASSERT_TRUE(solved.ok()) << solved.status();

  const auto failed = refresher.RefreshNow(prediction, 2, &slot);
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("injected"), std::string::npos);
  EXPECT_EQ(slot.epoch(), 1);
  EXPECT_EQ(slot.Get().published_window, 1);
  EXPECT_EQ(refresher.stats().failed_cycles, 1);
  EXPECT_EQ(refresher.stats().attempts, 1 + 3);
  EXPECT_EQ(faults.counters().guide_failures, 1);

  // The outage ends; the memo still holds the first solve.
  const auto recovered = refresher.RefreshNow(prediction, 3, &slot);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(refresher.last_cycle().unchanged);
  EXPECT_EQ(recovered.value().guide.get(), solved.value().guide.get());
}

TEST(GuideRefresherMemoTest, FailedCycleOnANewPredictionKeepsTheMemo) {
  const Instance instance = MakeExample1Instance();
  auto faults = FaultInjector::Parse("guide-fail@2-2:count=1").value();
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(),
                           GuideRefresher::Options{}, &faults);
  GuideSlot slot;
  const PredictionMatrix first = PredictionMatrix::FromInstance(instance);
  PredictionMatrix second = first;
  second.set_workers_at(0, first.workers_at(0) + 2);

  const auto solved = refresher.RefreshNow(first, 1, &slot);
  ASSERT_TRUE(solved.ok()) << solved.status();
  ASSERT_FALSE(refresher.RefreshNow(second, 2, &slot).ok());

  // `first` still hits: the failed cycle did not replace the memo.
  const auto again = refresher.RefreshNow(first, 3, &slot);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(refresher.last_cycle().unchanged);
  EXPECT_EQ(again.value().guide.get(), solved.value().guide.get());
  // And `second` was never solved, so it solves now.
  const auto fresh = refresher.RefreshNow(second, 4, &slot);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_FALSE(refresher.last_cycle().unchanged);
  EXPECT_NE(fresh.value().guide.get(), solved.value().guide.get());
}

TEST(GuideRefresherTest, BackgroundCyclePublishesThroughPoll) {
  const Instance instance = MakeExample1Instance();
  GuideRefresher::Options options;
  options.timeout_ms = 30000.0;
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(), options);
  GuideSlot slot;

  EXPECT_EQ(refresher.Poll(), GuideRefresher::PollResult::kIdle);
  ASSERT_TRUE(refresher.StartBackground(
      PredictionMatrix::FromInstance(instance), /*window=*/7, &slot));
  // A second start while in flight is refused.
  EXPECT_FALSE(refresher.StartBackground(
      PredictionMatrix::FromInstance(instance), 8, &slot));

  GuideRefresher::PollResult result = refresher.Poll();
  while (result == GuideRefresher::PollResult::kRunning) {
    std::this_thread::yield();
    result = refresher.Poll();
  }
  EXPECT_EQ(result, GuideRefresher::PollResult::kPublished);
  EXPECT_EQ(slot.epoch(), 1);
  EXPECT_EQ(slot.Get().published_window, 7);
  EXPECT_FALSE(refresher.busy());
  EXPECT_EQ(refresher.stats().publishes, 1);
  EXPECT_GE(refresher.stats().attempts, 1);
}

TEST(GuideRefresherTest, BackgroundInjectedFailureReportsFailed) {
  const Instance instance = MakeExample1Instance();
  auto faults = FaultInjector::Parse("guide-fail@0-100:count=1").value();
  GuideRefresher::Options options;
  options.timeout_ms = 30000.0;
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(), options,
                           &faults);
  GuideSlot slot;
  ASSERT_TRUE(refresher.StartBackground(
      PredictionMatrix::FromInstance(instance), 2, &slot));
  GuideRefresher::PollResult result = refresher.Poll();
  while (result == GuideRefresher::PollResult::kRunning) {
    std::this_thread::yield();
    result = refresher.Poll();
  }
  EXPECT_EQ(result, GuideRefresher::PollResult::kFailed);
  EXPECT_EQ(slot.epoch(), 0);  // Stale slot kept — the ladder's input.
  EXPECT_EQ(refresher.stats().failed_cycles, 1);

  // The refresher is reusable after a failed cycle.
  ASSERT_TRUE(refresher.StartBackground(
      PredictionMatrix::FromInstance(instance), 3, &slot));
  result = refresher.Poll();
  while (result == GuideRefresher::PollResult::kRunning) {
    std::this_thread::yield();
    result = refresher.Poll();
  }
  EXPECT_EQ(result, GuideRefresher::PollResult::kPublished);
  EXPECT_EQ(slot.epoch(), 1);
}

TEST(GuideRefresherTest, ZeroTimeoutIsReportedAsTimeoutNotPublished) {
  // With an immediate deadline the cycle can never publish: either Poll
  // observes the miss while the solve runs, or the solve finishes first
  // and Await discards it as late. Either way the slot stays stale and a
  // timeout is counted — a late guide is never installed.
  const Instance instance = MakeExample1Instance();
  GuideRefresher::Options options;
  options.timeout_ms = 0.0;
  GuideRefresher refresher(instance.velocity(), SmallGuideOptions(), options);
  GuideSlot slot;
  ASSERT_TRUE(refresher.StartBackground(
      PredictionMatrix::FromInstance(instance), 1, &slot));
  GuideRefresher::PollResult result = refresher.Poll();
  while (result == GuideRefresher::PollResult::kRunning) {
    std::this_thread::yield();
    result = refresher.Poll();
  }
  EXPECT_EQ(result, GuideRefresher::PollResult::kFailed);
  EXPECT_EQ(slot.epoch(), 0);
  EXPECT_EQ(refresher.stats().timeouts, 1);
  EXPECT_EQ(refresher.stats().publishes, 0);
  EXPECT_FALSE(refresher.busy());
}

}  // namespace
}  // namespace ftoa
