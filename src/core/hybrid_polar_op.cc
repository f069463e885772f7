#include "core/hybrid_polar_op.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "retrieval/waiting_pool.h"

namespace ftoa {

namespace {

struct WaitQueue {
  std::vector<int32_t> items;
  size_t head = 0;

  bool empty() const { return head >= items.size(); }
  void Push(int32_t id) { items.push_back(id); }
  int32_t Pop() { return items[head++]; }
};

/// One POLAR-OP+G run: POLAR-OP's node queues plus the greedy-fallback
/// waiting pools, hoisted into session state. The pool backend is a
/// template knob (GridWaitingPool = historical grid index;
/// EngineWaitingPool = shared retrieval engine with pruning + stats);
/// Nearest answers are canonical either way, so runs are bit-identical.
template <typename Pool>
class HybridPolarOpSession final : public AssignmentSessionBase {
 public:
  HybridPolarOpSession(const Instance& instance,
                       std::shared_ptr<const OfflineGuide> guide,
                       PolarOptions options)
      : AssignmentSessionBase(instance),
        guide_(std::move(guide)),
        options_(options),
        waiting_at_worker_node_(
            static_cast<size_t>(guide_->num_worker_nodes())),
        waiting_at_task_node_(static_cast<size_t>(guide_->num_task_nodes())),
        worker_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0),
        task_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0),
        // Greedy fallback state: every unmatched waiting object is pooled
        // at its *initial* location. Entries are erased when matched (via
        // either path); expired entries are filtered out by the feasibility
        // predicate (and pruned up front by the engine backend).
        waiting_workers_(guide_->spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(guide_->spacetime().grid(), &trace_.retrieval),
        limits_{instance.MaxTaskDuration(), instance.MaxWorkerDuration(),
                instance.velocity()} {}

  void OnWorker(WorkerId worker, double time) override {
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const double velocity = instance().velocity();
    const Worker& w = instance().worker(worker);
    bool matched = false;

    // --- Primary path: POLAR-OP's guide-based association. ---
    const TypeId type = st.TypeOf(w.location, w.start);
    const auto& nodes = guide.WorkerNodesOfType(type);
    GuideNodeId node = -1;
    GuideNodeId partner = -1;
    if (!nodes.empty()) {
      uint32_t& cursor = worker_type_cursor_[static_cast<size_t>(type)];
      node = nodes[static_cast<size_t>(cursor++ % nodes.size())];
      partner = guide.worker_nodes()[static_cast<size_t>(node)].partner;
    } else {
      ++trace_.ignored_workers;
    }
    if (partner != -1) {
      WaitQueue& queue = waiting_at_task_node_[static_cast<size_t>(partner)];
      while (!queue.empty()) {
        const int32_t task_id = queue.Pop();
        if (assignment_.IsTaskMatched(task_id)) continue;  // Fallback took it.
        const Task& r = instance().task(task_id);
        if (options_.check_liveness &&
            !CanServe(w, r, velocity,
                      FeasibilityPolicy::kDispatchAtWorkerStart)) {
          continue;
        }
        assignment_.Add(w.id, r.id, time);
        waiting_tasks_.Erase(task_id);
        matched = true;
        break;
      }
    }

    // --- Fallback: nearest waiting feasible task. Feasible tasks started
    // within MaxTaskDuration of now and lie within the wait-in-place reach
    // (superset window and radius; CanServe stays the authority, as in
    // simple_greedy.cc). ---
    if (!matched) {
      const int64_t candidate = waiting_tasks_.Nearest(
          w.location,
          FeasibleReach(w, time, limits_,
                        FeasibilityPolicy::kDispatchAtAssignmentTime),
          time, StartWindow{time - limits_.max_task_duration, time},
          [&](int64_t id, double) {
            if (assignment_.IsTaskMatched(static_cast<TaskId>(id))) {
              return false;
            }
            const Task& r = instance().task(static_cast<TaskId>(id));
            return CanServe(w, r, velocity,
                            FeasibilityPolicy::kDispatchAtAssignmentTime);
          });
      if (candidate >= 0) {
        assignment_.Add(w.id, static_cast<TaskId>(candidate), time);
        waiting_tasks_.Erase(candidate);
        matched = true;
      }
    }

    if (!matched) {
      if (node != -1 && partner != -1) {
        waiting_at_worker_node_[static_cast<size_t>(node)].Push(w.id);
        if (collect_dispatches()) {
          const TypeId target_type =
              guide.task_nodes()[static_cast<size_t>(partner)].type;
          trace_.dispatches.push_back(DispatchRecord{
              w.id, st.RepresentativeLocation(target_type), time});
        }
      }
      waiting_workers_.Insert(w.id, w.location, w.start, w.Deadline());
    }
  }

  void OnTask(TaskId task, double time) override {
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const double velocity = instance().velocity();
    const Task& r = instance().task(task);
    bool matched = false;

    const TypeId type = st.TypeOf(r.location, r.start);
    const auto& nodes = guide.TaskNodesOfType(type);
    GuideNodeId node = -1;
    GuideNodeId partner = -1;
    if (!nodes.empty()) {
      uint32_t& cursor = task_type_cursor_[static_cast<size_t>(type)];
      node = nodes[static_cast<size_t>(cursor++ % nodes.size())];
      partner = guide.task_nodes()[static_cast<size_t>(node)].partner;
    } else {
      ++trace_.ignored_tasks;
    }
    if (partner != -1) {
      WaitQueue& queue =
          waiting_at_worker_node_[static_cast<size_t>(partner)];
      while (!queue.empty()) {
        const int32_t worker_id = queue.Pop();
        if (assignment_.IsWorkerMatched(worker_id)) continue;
        const Worker& w = instance().worker(worker_id);
        if (options_.check_liveness &&
            !CanServe(w, r, velocity,
                      FeasibilityPolicy::kDispatchAtWorkerStart)) {
          continue;
        }
        assignment_.Add(w.id, r.id, time);
        waiting_workers_.Erase(worker_id);
        matched = true;
        break;
      }
    }

    if (!matched) {
      const double earliest = time - limits_.max_worker_duration;
      const int64_t candidate = waiting_workers_.Nearest(
          r.location,
          FeasibleReach(r, earliest, limits_,
                        FeasibilityPolicy::kDispatchAtAssignmentTime),
          time, StartWindow{earliest, time},
          [&](int64_t id, double) {
            if (assignment_.IsWorkerMatched(static_cast<WorkerId>(id))) {
              return false;
            }
            const Worker& w = instance().worker(static_cast<WorkerId>(id));
            return CanServe(w, r, velocity,
                            FeasibilityPolicy::kDispatchAtAssignmentTime);
          });
      if (candidate >= 0) {
        assignment_.Add(static_cast<WorkerId>(candidate), r.id, time);
        waiting_workers_.Erase(candidate);
        matched = true;
      }
    }

    if (!matched) {
      if (node != -1 && partner != -1) {
        waiting_at_task_node_[static_cast<size_t>(node)].Push(r.id);
      }
      waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
    }
  }

  bool SwapGuide(std::shared_ptr<const OfflineGuide> guide) override {
    if (guide == nullptr || guide->spacetime().num_types() !=
                                guide_->spacetime().num_types()) {
      return false;
    }
    guide_ = std::move(guide);
    // Node queues and cursors follow the guide and restart empty. The
    // greedy-fallback waiting pools are guide-independent (keyed by object
    // id and initial location), so objects dropped from a node queue stay
    // reachable through the fallback path.
    waiting_at_worker_node_.assign(
        static_cast<size_t>(guide_->num_worker_nodes()), WaitQueue{});
    waiting_at_task_node_.assign(
        static_cast<size_t>(guide_->num_task_nodes()), WaitQueue{});
    std::fill(worker_type_cursor_.begin(), worker_type_cursor_.end(), 0u);
    std::fill(task_type_cursor_.begin(), task_type_cursor_.end(), 0u);
    return true;
  }

 private:
  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
  std::vector<WaitQueue> waiting_at_worker_node_;
  std::vector<WaitQueue> waiting_at_task_node_;
  std::vector<uint32_t> worker_type_cursor_;
  std::vector<uint32_t> task_type_cursor_;
  Pool waiting_workers_;
  Pool waiting_tasks_;
  ReachLimits limits_;
};

}  // namespace

HybridPolarOp::HybridPolarOp(std::shared_ptr<const OfflineGuide> guide,
                             PolarOptions options)
    : guide_(std::move(guide)), options_(options) {}

std::unique_ptr<AssignmentSession> HybridPolarOp::StartSession(
    const Instance& instance) {
  if (options_.retrieval == RetrievalMode::kEngine) {
    return std::make_unique<HybridPolarOpSession<EngineWaitingPool>>(
        instance, guide_, options_);
  }
  return std::make_unique<HybridPolarOpSession<GridWaitingPool>>(
      instance, guide_, options_);
}

}  // namespace ftoa
