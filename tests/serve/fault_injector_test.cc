#include "serve/fault_injector.h"

#include <gtest/gtest.h>

#include <string>

namespace ftoa {
namespace {

TEST(FaultInjectorTest, EmptySpecIsBenign) {
  auto injector = FaultInjector::Parse("");
  ASSERT_TRUE(injector.ok());
  EXPECT_TRUE(injector.value().empty());
  EXPECT_DOUBLE_EQ(injector.value().SlowShardStallMs(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(injector.value().FlashCrowdFactor(5), 1.0);
  EXPECT_FALSE(injector.value().GuideRefreshShouldFail(3));
  EXPECT_FALSE(injector.value().ShouldDropHandoffBatch(3, 0));
}

TEST(FaultInjectorTest, ParsesFullPlan) {
  auto parsed = FaultInjector::Parse(
      "slow-shard@3-5:shard=1:stall-ms=40,guide-fail@4-6:count=2,"
      "flash@7-8:factor=4,drop-batch@9-9:shard=2:prob=0.5");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const FaultInjector& injector = parsed.value();
  ASSERT_EQ(injector.faults().size(), 4u);
  EXPECT_EQ(injector.faults()[0].name, "slow-shard");
  EXPECT_EQ(injector.faults()[0].begin_window, 3);
  EXPECT_EQ(injector.faults()[0].end_window, 5);
  EXPECT_EQ(injector.faults()[0].shard, 1);
  EXPECT_DOUBLE_EQ(injector.faults()[0].stall_ms, 40.0);
  EXPECT_EQ(injector.faults()[1].count, 2);
  EXPECT_DOUBLE_EQ(injector.faults()[2].factor, 4.0);
  EXPECT_DOUBLE_EQ(injector.faults()[3].prob, 0.5);
}

TEST(FaultInjectorTest, SlowShardTargetsWindowAndShard) {
  auto injector =
      FaultInjector::Parse("slow-shard@2-4:shard=1:stall-ms=10").value();
  EXPECT_DOUBLE_EQ(injector.SlowShardStallMs(1, 1), 0.0);  // Before range.
  EXPECT_DOUBLE_EQ(injector.SlowShardStallMs(2, 1), 10.0);
  EXPECT_DOUBLE_EQ(injector.SlowShardStallMs(4, 1), 10.0);  // Inclusive end.
  EXPECT_DOUBLE_EQ(injector.SlowShardStallMs(5, 1), 0.0);
  EXPECT_DOUBLE_EQ(injector.SlowShardStallMs(3, 0), 0.0);  // Other shard.

  auto all = FaultInjector::Parse("slow-shard@0-0:stall-ms=7").value();
  EXPECT_DOUBLE_EQ(all.SlowShardStallMs(0, 0), 7.0);  // shard=-1: all.
  EXPECT_DOUBLE_EQ(all.SlowShardStallMs(0, 3), 7.0);

  auto overlap = FaultInjector::Parse(
                     "slow-shard@0-2:stall-ms=5,slow-shard@1-3:stall-ms=3")
                     .value();
  EXPECT_DOUBLE_EQ(overlap.SlowShardStallMs(1, 0), 8.0);  // Additive.
}

TEST(FaultInjectorTest, GuideFailConsumesCount) {
  auto injector = FaultInjector::Parse("guide-fail@2-9:count=2").value();
  EXPECT_FALSE(injector.GuideRefreshShouldFail(1));
  EXPECT_TRUE(injector.GuideRefreshShouldFail(2));
  EXPECT_TRUE(injector.GuideRefreshShouldFail(3));
  EXPECT_FALSE(injector.GuideRefreshShouldFail(4));  // Count exhausted.
  EXPECT_EQ(injector.counters().guide_failures, 2);
}

TEST(FaultInjectorTest, FlashFactorMultipliesOverlaps) {
  auto injector =
      FaultInjector::Parse("flash@1-2:factor=3,flash@2-3:factor=2").value();
  EXPECT_DOUBLE_EQ(injector.FlashCrowdFactor(0), 1.0);
  EXPECT_DOUBLE_EQ(injector.FlashCrowdFactor(1), 3.0);
  EXPECT_DOUBLE_EQ(injector.FlashCrowdFactor(2), 6.0);
  EXPECT_DOUBLE_EQ(injector.FlashCrowdFactor(3), 2.0);
}

TEST(FaultInjectorTest, DropBatchIsDeterministicInSeed) {
  const std::string spec = "drop-batch@0-99:prob=0.5";
  auto a = FaultInjector::Parse(spec, 7).value();
  auto b = FaultInjector::Parse(spec, 7).value();
  int drops = 0;
  for (int i = 0; i < 100; ++i) {
    const bool drop = a.ShouldDropHandoffBatch(i, 0);
    EXPECT_EQ(drop, b.ShouldDropHandoffBatch(i, 0));
    drops += drop ? 1 : 0;
  }
  EXPECT_GT(drops, 20);  // ~50 expected.
  EXPECT_LT(drops, 80);
  EXPECT_EQ(a.counters().dropped_batches, drops);

  auto sure = FaultInjector::Parse("drop-batch@0-0").value();
  EXPECT_TRUE(sure.ShouldDropHandoffBatch(0, 5));  // prob default 1, any shard.
  EXPECT_FALSE(sure.ShouldDropHandoffBatch(1, 5));
}

TEST(FaultInjectorTest, UnknownFaultListsValidSet) {
  const auto status = FaultInjector::Parse("chaos-monkey@0-1").status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("chaos-monkey"), std::string::npos);
  EXPECT_NE(status.message().find("slow-shard"), std::string::npos);
  EXPECT_NE(status.message().find("drop-batch"), std::string::npos);
}

TEST(FaultInjectorTest, UnknownParameterListsValidKeys) {
  const auto status =
      FaultInjector::Parse("slow-shard@0-1:latency=5").status();
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_NE(status.message().find("latency"), std::string::npos);
  EXPECT_NE(status.message().find("stall-ms"), std::string::npos);
}

TEST(FaultInjectorTest, MalformedSpecsAreRejected) {
  EXPECT_TRUE(FaultInjector::Parse("flash").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@5").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@5-2").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@-3-2").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@0-1:factor=x").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@0-1:factor").status().IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@0-1:factor=0.5").status()
          .IsInvalidArgument());
  EXPECT_TRUE(FaultInjector::Parse("guide-fail@0-1:count=0")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(FaultInjector::Parse("drop-batch@0-1:prob=1.5")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      FaultInjector::Parse("flash@0-1,").status().IsInvalidArgument());
  // Non-finite numbers fail every range check silently, and out-of-range
  // integer fields would go through an undefined float-to-int cast.
  for (const char* spec :
       {"drop-batch@0-1:prob=nan", "slow-shard@0-1:stall-ms=nan",
        "flash@0-1:factor=inf", "flash@0-1:factor=nan",
        "guide-fail@0-1:count=nan", "guide-fail@0-1:count=1e300",
        "drop-batch@0-1:shard=1e20", "slow-shard@0-1:shard=-2",
        "flash@0-1e300", "flash@nan-1", "flash@0-inf"}) {
    EXPECT_TRUE(FaultInjector::Parse(spec).status().IsInvalidArgument())
        << spec;
  }
}

}  // namespace
}  // namespace ftoa
