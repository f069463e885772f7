#include "core/guide.h"

#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace ftoa {

OfflineGuide::OfflineGuide(SpacetimeSpec spacetime, double velocity,
                           double worker_duration, double task_duration,
                           double representative_slack)
    : spacetime_(spacetime),
      velocity_(velocity),
      worker_duration_(worker_duration),
      task_duration_(task_duration),
      representative_slack_(representative_slack),
      worker_nodes_by_type_(static_cast<size_t>(spacetime.num_types())),
      task_nodes_by_type_(static_cast<size_t>(spacetime.num_types())) {}

namespace {

GuideNodeId AppendNodes(TypeId type, int32_t count,
                        std::vector<GuideNode>* nodes,
                        GuideNodeRange* nodes_of_type) {
  const auto first = static_cast<GuideNodeId>(nodes->size());
  if (nodes_of_type->empty()) {
    nodes_of_type->first = first;
  } else if (nodes_of_type->first + nodes_of_type->count != first) {
    std::fprintf(stderr,
                 "OfflineGuide: nodes of type %d added non-consecutively "
                 "(its range ends at %d, the next node is %d)\n",
                 type, nodes_of_type->first + nodes_of_type->count, first);
    std::abort();
  }
  nodes->resize(nodes->size() + static_cast<size_t>(count),
                GuideNode{type, -1});
  nodes_of_type->count += count;
  return first;
}

}  // namespace

GuideNodeId OfflineGuide::AddWorkerNodes(TypeId type, int32_t count) {
  return AppendNodes(type, count, &worker_nodes_,
                     &worker_nodes_by_type_[static_cast<size_t>(type)]);
}

GuideNodeId OfflineGuide::AddTaskNodes(TypeId type, int32_t count) {
  return AppendNodes(type, count, &task_nodes_,
                     &task_nodes_by_type_[static_cast<size_t>(type)]);
}

Status OfflineGuide::MatchNodes(GuideNodeId worker_node,
                                GuideNodeId task_node) {
  if (worker_node < 0 ||
      static_cast<size_t>(worker_node) >= worker_nodes_.size()) {
    return Status::OutOfRange("OfflineGuide: worker node out of range");
  }
  if (task_node < 0 || static_cast<size_t>(task_node) >= task_nodes_.size()) {
    return Status::OutOfRange("OfflineGuide: task node out of range");
  }
  if (worker_nodes_[static_cast<size_t>(worker_node)].partner != -1) {
    return Status::FailedPrecondition(
        "OfflineGuide: worker node already matched");
  }
  if (task_nodes_[static_cast<size_t>(task_node)].partner != -1) {
    return Status::FailedPrecondition(
        "OfflineGuide: task node already matched");
  }
  worker_nodes_[static_cast<size_t>(worker_node)].partner = task_node;
  task_nodes_[static_cast<size_t>(task_node)].partner = worker_node;
  ++matched_pairs_;
  return Status::OK();
}

std::unordered_map<int64_t, int32_t>
OfflineGuide::MatchedPairCountsByTypePair() const {
  std::unordered_map<int64_t, int32_t> counts;
  counts.reserve(static_cast<size_t>(matched_pairs_));
  for (const GuideNode& node : worker_nodes_) {
    if (node.partner == -1) continue;
    const TypeId task_type =
        task_nodes_[static_cast<size_t>(node.partner)].type;
    ++counts[TypePairKey(node.type, task_type)];
  }
  return counts;
}

Status OfflineGuide::Validate() const {
  for (size_t w = 0; w < worker_nodes_.size(); ++w) {
    const GuideNode& node = worker_nodes_[w];
    if (node.partner == -1) continue;
    if (static_cast<size_t>(node.partner) >= task_nodes_.size()) {
      return Status::Internal("OfflineGuide: dangling partner id");
    }
    const GuideNode& partner = task_nodes_[static_cast<size_t>(node.partner)];
    if (partner.partner != static_cast<GuideNodeId>(w)) {
      return Status::Internal("OfflineGuide: asymmetric matching");
    }
    // The generator's slack extends both deadline conditions uniformly.
    const bool feasible = CanServeAttrs(
        spacetime_.RepresentativeLocation(node.type),
        spacetime_.RepresentativeTime(node.type),
        worker_duration_ + representative_slack_,
        spacetime_.RepresentativeLocation(partner.type),
        spacetime_.RepresentativeTime(partner.type),
        task_duration_ + representative_slack_, velocity_,
        FeasibilityPolicy::kDispatchAtWorkerStart);
    if (!feasible) {
      return Status::FailedPrecondition(
          "OfflineGuide: matched pair violates type-level feasibility");
    }
  }
  return Status::OK();
}

}  // namespace ftoa
