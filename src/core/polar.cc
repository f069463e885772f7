#include "core/polar.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace ftoa {

namespace {

/// One POLAR run. All state of the old per-run loop lives here, so sessions
/// of one Polar object are independent.
class PolarSession final : public AssignmentSessionBase {
 public:
  PolarSession(const Instance& instance,
               std::shared_ptr<const OfflineGuide> guide,
               PolarOptions options)
      : AssignmentSessionBase(instance),
        guide_(std::move(guide)),
        options_(options),
        // Occupant object id per guide node, -1 while unoccupied (line 1:
        // mark all the nodes unoccupied).
        worker_node_occupant_(
            static_cast<size_t>(guide_->num_worker_nodes()), -1),
        task_node_occupant_(static_cast<size_t>(guide_->num_task_nodes()),
                            -1),
        // Next unused node per type: occupation hands nodes out in creation
        // order, making each arrival O(1).
        worker_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0),
        task_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0) {}

  void OnWorker(WorkerId worker, double time) override {
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const Worker& w = instance().worker(worker);
    const TypeId type = st.TypeOf(w.location, w.start);
    const GuideNodeRange nodes = guide.WorkerNodesOfType(type);
    int32_t& cursor = worker_type_cursor_[static_cast<size_t>(type)];
    if (cursor >= nodes.size()) {
      // No unoccupied node of this type: the object is ignored (the
      // prediction under-estimated this type).
      ++trace_.ignored_workers;
      return;
    }
    const GuideNodeId node = nodes[cursor++];
    worker_node_occupant_[static_cast<size_t>(node)] = w.id;
    const GuideNodeId partner =
        guide.worker_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;  // Unmatched in Ĝf: stay in place.
    const int32_t occupant =
        task_node_occupant_[static_cast<size_t>(partner)];
    if (occupant >= 0) {
      const Task& r = instance().task(occupant);
      const bool alive = !options_.check_liveness ||
                         CanServe(w, r, instance().velocity(),
                                  FeasibilityPolicy::kDispatchAtWorkerStart);
      if (alive && !assignment_.IsTaskMatched(r.id)) {
        assignment_.Add(w.id, r.id, time);
      }
    } else if (collect_dispatches()) {
      // Dispatch the worker toward the partner's area in advance.
      const TypeId target_type =
          guide.task_nodes()[static_cast<size_t>(partner)].type;
      trace_.dispatches.push_back(
          DispatchRecord{w.id, st.RepresentativeLocation(target_type), time});
    }
  }

  void OnTask(TaskId task, double time) override {
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const Task& r = instance().task(task);
    const TypeId type = st.TypeOf(r.location, r.start);
    const GuideNodeRange nodes = guide.TaskNodesOfType(type);
    int32_t& cursor = task_type_cursor_[static_cast<size_t>(type)];
    if (cursor >= nodes.size()) {
      ++trace_.ignored_tasks;
      return;
    }
    const GuideNodeId node = nodes[cursor++];
    task_node_occupant_[static_cast<size_t>(node)] = r.id;
    const GuideNodeId partner =
        guide.task_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;  // Unmatched in Ĝf: wait until deadline.
    const int32_t occupant =
        worker_node_occupant_[static_cast<size_t>(partner)];
    if (occupant >= 0) {
      const Worker& w = instance().worker(occupant);
      const bool alive = !options_.check_liveness ||
                         CanServe(w, r, instance().velocity(),
                                  FeasibilityPolicy::kDispatchAtWorkerStart);
      if (alive && !assignment_.IsWorkerMatched(w.id)) {
        assignment_.Add(w.id, r.id, time);
      }
    }
    // A waiting task issues no dispatch: its location is fixed.
  }

  bool SwapGuide(std::shared_ptr<const OfflineGuide> guide) override {
    if (guide == nullptr || guide->spacetime().num_types() !=
                                guide_->spacetime().num_types()) {
      return false;
    }
    guide_ = std::move(guide);
    // Occupancy and cursors are sized from (and index into) the guide:
    // rebuild them empty against the new one. Committed pairs stay.
    worker_node_occupant_.assign(
        static_cast<size_t>(guide_->num_worker_nodes()), -1);
    task_node_occupant_.assign(
        static_cast<size_t>(guide_->num_task_nodes()), -1);
    std::fill(worker_type_cursor_.begin(), worker_type_cursor_.end(), 0);
    std::fill(task_type_cursor_.begin(), task_type_cursor_.end(), 0);
    return true;
  }

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
  std::vector<int32_t> worker_node_occupant_;
  std::vector<int32_t> task_node_occupant_;
  std::vector<int32_t> worker_type_cursor_;
  std::vector<int32_t> task_type_cursor_;
};

}  // namespace

Polar::Polar(std::shared_ptr<const OfflineGuide> guide, PolarOptions options)
    : guide_(std::move(guide)), options_(options) {}

std::unique_ptr<AssignmentSession> Polar::StartSession(
    const Instance& instance) {
  return std::make_unique<PolarSession>(instance, guide_, options_);
}

}  // namespace ftoa
