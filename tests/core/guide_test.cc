#include "core/guide.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace ftoa {
namespace {

SpacetimeSpec MakeSpacetime() {
  return SpacetimeSpec(SlotSpec(10.0, 2), GridSpec(8.0, 8.0, 2, 2));
}

TEST(OfflineGuideTest, NodeCreationTracksTypes) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w0 = guide.AddWorkerNode(2);
  const GuideNodeId w1 = guide.AddWorkerNode(2);
  const GuideNodeId r0 = guide.AddTaskNode(2);
  EXPECT_EQ(guide.num_worker_nodes(), 2);
  EXPECT_EQ(guide.num_task_nodes(), 1);
  EXPECT_EQ(guide.WorkerNodesOfType(2).size(), 2);
  EXPECT_EQ(guide.WorkerNodesOfType(2)[0], w0);
  EXPECT_EQ(guide.WorkerNodesOfType(2)[1], w1);
  EXPECT_EQ(guide.TaskNodesOfType(2)[0], r0);
  EXPECT_EQ(guide.TaskNodesOfType(2).size(), 1);
  EXPECT_TRUE(guide.WorkerNodesOfType(0).empty());
  EXPECT_TRUE(guide.TaskNodesOfType(0).empty());
}

TEST(OfflineGuideTest, NodesOfTypeAreOneRangePerSide) {
  // Types are added in any order, each in one or more back-to-back calls;
  // a side's ranges tile its node ids in the order the types came.
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  EXPECT_EQ(guide.AddWorkerNodes(3, 2), 0);
  EXPECT_EQ(guide.AddWorkerNode(3), 2);
  EXPECT_EQ(guide.AddWorkerNodes(1, 4), 3);
  EXPECT_EQ(guide.AddTaskNodes(1, 2), 0);  // Sides number independently.
  EXPECT_EQ(guide.AddTaskNodes(3, 1), 2);
  const GuideNodeRange w3 = guide.WorkerNodesOfType(3);
  const GuideNodeRange w1 = guide.WorkerNodesOfType(1);
  EXPECT_EQ(w3.first, 0);
  EXPECT_EQ(w3.size(), 3);
  EXPECT_EQ(w1.first, 3);
  EXPECT_EQ(w1.size(), 4);
  EXPECT_EQ(w1[3], 6);
  EXPECT_EQ(guide.TaskNodesOfType(1).first, 0);
  EXPECT_EQ(guide.TaskNodesOfType(3).first, 2);
  // Every node of a range carries the range's type.
  for (TypeId type = 0; type < guide.spacetime().num_types(); ++type) {
    const GuideNodeRange nodes = guide.WorkerNodesOfType(type);
    for (int32_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(guide.worker_nodes()[static_cast<size_t>(nodes[i])].type,
                type);
    }
  }
}

TEST(OfflineGuideDeathTest, NonConsecutiveTypeNodesAbort) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  guide.AddWorkerNode(2);
  guide.AddWorkerNode(1);
  EXPECT_DEATH(guide.AddWorkerNode(2),
               "OfflineGuide: nodes of type 2 added non-consecutively");
  guide.AddTaskNodes(0, 3);
  guide.AddTaskNode(2);
  EXPECT_DEATH(guide.AddTaskNodes(0, 1),
               "OfflineGuide: nodes of type 0 added non-consecutively");
}

TEST(OfflineGuideTest, MatchNodesSetsPartners) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w = guide.AddWorkerNode(2);
  const GuideNodeId r = guide.AddTaskNode(2);
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_EQ(guide.worker_nodes()[0].partner, r);
  EXPECT_EQ(guide.task_nodes()[0].partner, w);
  EXPECT_EQ(guide.matched_pairs(), 1);
}

TEST(OfflineGuideTest, MatchNodesRejectsRematch) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w = guide.AddWorkerNode(2);
  const GuideNodeId w2 = guide.AddWorkerNode(2);
  const GuideNodeId r = guide.AddTaskNode(2);
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_FALSE(guide.MatchNodes(w2, r).ok());
  EXPECT_EQ(guide.matched_pairs(), 1);
}

TEST(OfflineGuideTest, MatchNodesRejectsBadIds) {
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  guide.AddWorkerNode(2);
  EXPECT_FALSE(guide.MatchNodes(0, 0).ok());   // No task nodes yet.
  EXPECT_FALSE(guide.MatchNodes(-1, 0).ok());
  EXPECT_FALSE(guide.MatchNodes(5, 0).ok());
}

TEST(OfflineGuideTest, ValidateAcceptsFeasiblePair) {
  // Same type: representative distance 0, always feasible.
  OfflineGuide guide(MakeSpacetime(), 1.0, 30.0, 2.0);
  const GuideNodeId w = guide.AddWorkerNode(2);
  const GuideNodeId r = guide.AddTaskNode(2);
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_TRUE(guide.Validate().ok());
}

TEST(OfflineGuideTest, ValidateRejectsInfeasiblePair) {
  // Task slot 0 far cell with tiny Dr and worker in slot 1 -> the
  // representative pair violates the deadline constraint.
  OfflineGuide guide(MakeSpacetime(), 1.0, /*worker_duration=*/30.0,
                     /*task_duration=*/0.1);
  const GuideNodeId w = guide.AddWorkerNode(2);  // Slot 0, top-left.
  const GuideNodeId r = guide.AddTaskNode(1);    // Slot 0, bottom-right.
  ASSERT_TRUE(guide.MatchNodes(w, r).ok());
  EXPECT_FALSE(guide.Validate().ok());
}

}  // namespace
}  // namespace ftoa
