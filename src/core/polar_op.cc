#include "core/polar_op.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/node_wait_lists.h"

namespace ftoa {

namespace {

/// One POLAR-OP run: the per-node wait lists and the round-robin cursors
/// of the old per-run loop, hoisted into session state.
class PolarOpSession final : public AssignmentSessionBase {
 public:
  PolarOpSession(const Instance& instance,
                 std::shared_ptr<const OfflineGuide> guide,
                 PolarOptions options)
      : AssignmentSessionBase(instance),
        guide_(std::move(guide)),
        options_(options),
        // Unmatched objects waiting at each guide node ("associated"
        // objects that have not yet been paired).
        workers_at_node_(guide_->num_worker_nodes(), instance.num_workers()),
        tasks_at_node_(guide_->num_task_nodes(), instance.num_tasks()),
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
    if (nodes.empty()) {
      // No node of this type exists in the guide: the object is ignored.
      ++trace_.ignored_workers;
      return;
    }
    const GuideNodeId node = NextNodeRoundRobin(
        nodes, &worker_type_cursor_[static_cast<size_t>(type)]);
    const GuideNodeId partner =
        guide.worker_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;  // Stays in place; never matched by Ĝf.
    // Under liveness checks, waiting tasks this worker cannot serve are
    // discarded as expired.
    const int32_t task_id =
        tasks_at_node_.TakeFirst(partner, [&](int32_t id) {
          return !options_.check_liveness ||
                 CanServe(w, instance().task(id), instance().velocity(),
                          FeasibilityPolicy::kDispatchAtWorkerStart);
        });
    if (task_id != NodeWaitLists::kNone) {
      assignment_.Add(w.id, task_id, time);
      return;
    }
    workers_at_node_.PushBack(node, w.id);
    if (collect_dispatches()) {
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
    if (nodes.empty()) {
      ++trace_.ignored_tasks;
      return;
    }
    const GuideNodeId node = NextNodeRoundRobin(
        nodes, &task_type_cursor_[static_cast<size_t>(type)]);
    const GuideNodeId partner =
        guide.task_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;  // Waits until its deadline; never matched.
    // Under liveness checks, waiting workers that cannot serve this task
    // are discarded as gone from the platform.
    const int32_t worker_id =
        workers_at_node_.TakeFirst(partner, [&](int32_t id) {
          return !options_.check_liveness ||
                 CanServe(instance().worker(id), r, instance().velocity(),
                          FeasibilityPolicy::kDispatchAtWorkerStart);
        });
    if (worker_id != NodeWaitLists::kNone) {
      assignment_.Add(worker_id, r.id, time);
      return;
    }
    tasks_at_node_.PushBack(node, r.id);
  }

  bool SwapGuide(std::shared_ptr<const OfflineGuide> guide) override {
    if (guide == nullptr || guide->spacetime().num_types() !=
                                guide_->spacetime().num_types()) {
      return false;
    }
    guide_ = std::move(guide);
    // Wait lists hang off guide nodes; with the node set replaced, the
    // still-waiting objects are released (they re-enter only if the caller
    // replays them, as the serving harness's carryover does).
    workers_at_node_.Reset(guide_->num_worker_nodes());
    tasks_at_node_.Reset(guide_->num_task_nodes());
    std::fill(worker_type_cursor_.begin(), worker_type_cursor_.end(), 0u);
    std::fill(task_type_cursor_.begin(), task_type_cursor_.end(), 0u);
    return true;
  }

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
  NodeWaitLists workers_at_node_;  // Indexed by worker node.
  NodeWaitLists tasks_at_node_;    // Indexed by task node.
  std::vector<uint32_t> worker_type_cursor_;
  std::vector<uint32_t> task_type_cursor_;
};

}  // namespace

PolarOp::PolarOp(std::shared_ptr<const OfflineGuide> guide,
                 PolarOptions options)
    : guide_(std::move(guide)), options_(options) {}

std::unique_ptr<AssignmentSession> PolarOp::StartSession(
    const Instance& instance) {
  return std::make_unique<PolarOpSession>(instance, guide_, options_);
}

}  // namespace ftoa
