// OfflineGuide: the pseudo-assignment Ĝf produced by offline guide
// generation (paper Section 4). Predicted counts are instantiated into
// typed nodes; a maximum bipartite matching pairs worker nodes with task
// nodes. The online algorithms then let real objects occupy (POLAR) or
// associate with (POLAR-OP) nodes of their own type.

#ifndef FTOA_CORE_GUIDE_H_
#define FTOA_CORE_GUIDE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "model/feasibility.h"
#include "spatial/spacetime.h"
#include "util/status.h"

namespace ftoa {

/// Index of a guide node within its side's node vector.
using GuideNodeId = int32_t;

/// The ids of one type's nodes on one side of the guide: a type's nodes
/// are added consecutively, so they are [first, first + count).
struct GuideNodeRange {
  GuideNodeId first = 0;
  int32_t count = 0;

  bool empty() const { return count == 0; }
  int32_t size() const { return count; }
  /// The `i`-th node of the type, 0 <= i < count.
  GuideNodeId operator[](int32_t i) const { return first + i; }
};

/// One predicted node of the bipartite guide graph.
struct GuideNode {
  TypeId type = -1;
  /// Matched partner on the other side in Ĝf, or -1 when unmatched.
  GuideNodeId partner = -1;
};

/// The immutable offline guide shared by POLAR-family algorithms.
class OfflineGuide {
 public:
  OfflineGuide() = default;

  /// `worker_duration` / `task_duration` are the representative Dw / Dr the
  /// generator used for its edge feasibility tests; `representative_slack`
  /// is the discretization slack it granted (GuideOptions).
  OfflineGuide(SpacetimeSpec spacetime, double velocity,
               double worker_duration, double task_duration,
               double representative_slack = 0.0);

  const SpacetimeSpec& spacetime() const { return spacetime_; }
  double velocity() const { return velocity_; }
  double worker_duration() const { return worker_duration_; }
  double task_duration() const { return task_duration_; }
  double representative_slack() const { return representative_slack_; }

  /// Appends a worker node of `type`; returns its id.
  GuideNodeId AddWorkerNode(TypeId type) { return AddWorkerNodes(type, 1); }
  /// Appends a task node of `type`; returns its id.
  GuideNodeId AddTaskNode(TypeId type) { return AddTaskNodes(type, 1); }

  /// Appends `count` > 0 worker nodes of `type` with consecutive ids;
  /// returns the first. All of a type's nodes must be added back to back
  /// (no other type's in between): a type's nodes form one id range, and
  /// a call that would split it aborts.
  GuideNodeId AddWorkerNodes(TypeId type, int32_t count);
  /// Appends `count` > 0 task nodes of `type`; see AddWorkerNodes.
  GuideNodeId AddTaskNodes(TypeId type, int32_t count);

  /// Marks (worker node, task node) as a matched pair of Ĝf.
  /// Both must be currently unmatched.
  Status MatchNodes(GuideNodeId worker_node, GuideNodeId task_node);

  const std::vector<GuideNode>& worker_nodes() const { return worker_nodes_; }
  const std::vector<GuideNode>& task_nodes() const { return task_nodes_; }

  /// Ids of worker nodes of a given type, in creation order.
  GuideNodeRange WorkerNodesOfType(TypeId type) const {
    return worker_nodes_by_type_[static_cast<size_t>(type)];
  }
  /// Ids of task nodes of a given type, in creation order.
  GuideNodeRange TaskNodesOfType(TypeId type) const {
    return task_nodes_by_type_[static_cast<size_t>(type)];
  }

  /// |E*|: the number of matched node pairs (the flow value of Algorithm 1).
  int64_t matched_pairs() const { return matched_pairs_; }

  /// Dense key of a (worker type, task type) pair in the capacity
  /// accounting below.
  int64_t TypePairKey(TypeId worker_type, TypeId task_type) const {
    return static_cast<int64_t>(worker_type) * spacetime_.num_types() +
           task_type;
  }

  /// Capacity accounting of Ĝf: how many matched node pairs connect each
  /// (worker type, task type), keyed by TypePairKey. This is the per-flow
  /// multiplicity the POLAR family realizes along — a pass adding pairs on
  /// a guided algorithm's behalf (boundary reconciliation) bounds its
  /// per-type-pair additions by these counts, mirroring how each shard's
  /// session consumes the guide. O(matched_pairs()); build once per pass.
  std::unordered_map<int64_t, int32_t> MatchedPairCountsByTypePair() const;

  /// m: the number of predicted worker nodes.
  int64_t num_worker_nodes() const {
    return static_cast<int64_t>(worker_nodes_.size());
  }
  /// n: the number of predicted task nodes.
  int64_t num_task_nodes() const {
    return static_cast<int64_t>(task_nodes_.size());
  }

  /// Checks every matched pair against the type-representative feasibility
  /// predicate the guide was built with (deadline constraint of
  /// Definition 4 on cell centers and slot midpoints).
  Status Validate() const;

 private:
  SpacetimeSpec spacetime_;
  double velocity_ = 1.0;
  double worker_duration_ = 0.0;
  double task_duration_ = 0.0;
  double representative_slack_ = 0.0;
  std::vector<GuideNode> worker_nodes_;
  std::vector<GuideNode> task_nodes_;
  std::vector<GuideNodeRange> worker_nodes_by_type_;
  std::vector<GuideNodeRange> task_nodes_by_type_;
  int64_t matched_pairs_ = 0;
};

}  // namespace ftoa

#endif  // FTOA_CORE_GUIDE_H_
