#include "core/hybrid_polar_op.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/node_wait_lists.h"
#include "retrieval/waiting_pool.h"

namespace ftoa {

namespace {

/// One POLAR-OP+G run: POLAR-OP's node wait lists plus the greedy-fallback
/// waiting pools on the shared retrieval engine, hoisted into session
/// state. Nearest answers are canonical (distance, id), so runs are
/// bit-identical to the grid-index fallback of
/// tests/oracles/vector_queue_polar_op.
class HybridPolarOpSession final : public AssignmentSessionBase {
 public:
  HybridPolarOpSession(const Instance& instance,
                       std::shared_ptr<const OfflineGuide> guide,
                       PolarOptions options)
      : AssignmentSessionBase(instance),
        guide_(std::move(guide)),
        options_(options),
        workers_at_node_(guide_->num_worker_nodes(), instance.num_workers()),
        tasks_at_node_(guide_->num_task_nodes(), instance.num_tasks()),
        worker_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0),
        task_type_cursor_(
            static_cast<size_t>(guide_->spacetime().num_types()), 0),
        // Greedy fallback state: every unmatched waiting object is pooled
        // at its *initial* location. Entries are erased when matched (via
        // either path) and, once expired, at the next decision.
        waiting_workers_(guide_->spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(guide_->spacetime().grid(), &trace_.retrieval),
        limits_{instance.MaxTaskDuration(), instance.MaxWorkerDuration(),
                instance.velocity()} {}

  void OnWorker(WorkerId worker, double time) override {
    ExpireBefore(time);
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const double velocity = instance().velocity();
    const Worker& w = instance().worker(worker);
    bool matched = false;

    // --- Primary path: POLAR-OP's guide-based association. ---
    const TypeId type = st.TypeOf(w.location, w.start);
    const GuideNodeRange nodes = guide.WorkerNodesOfType(type);
    GuideNodeId node = -1;
    GuideNodeId partner = -1;
    if (!nodes.empty()) {
      node = NextNodeRoundRobin(
          nodes, &worker_type_cursor_[static_cast<size_t>(type)]);
      partner = guide.worker_nodes()[static_cast<size_t>(node)].partner;
    } else {
      ++trace_.ignored_workers;
    }
    if (partner != -1) {
      // Entries the fallback already matched are dropped on the way.
      const int32_t task_id =
          tasks_at_node_.TakeFirst(partner, [&](int32_t id) {
            return !assignment_.IsTaskMatched(id) &&
                   (!options_.check_liveness ||
                    CanServe(w, instance().task(id), velocity,
                             FeasibilityPolicy::kDispatchAtWorkerStart));
          });
      if (task_id != NodeWaitLists::kNone) {
        assignment_.Add(w.id, task_id, time);
        waiting_tasks_.Erase(task_id);
        matched = true;
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
        workers_at_node_.PushBack(node, w.id);
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
    ExpireBefore(time);
    const OfflineGuide& guide = *guide_;
    const SpacetimeSpec& st = guide.spacetime();
    const double velocity = instance().velocity();
    const Task& r = instance().task(task);
    bool matched = false;

    const TypeId type = st.TypeOf(r.location, r.start);
    const GuideNodeRange nodes = guide.TaskNodesOfType(type);
    GuideNodeId node = -1;
    GuideNodeId partner = -1;
    if (!nodes.empty()) {
      node = NextNodeRoundRobin(
          nodes, &task_type_cursor_[static_cast<size_t>(type)]);
      partner = guide.task_nodes()[static_cast<size_t>(node)].partner;
    } else {
      ++trace_.ignored_tasks;
    }
    if (partner != -1) {
      const int32_t worker_id =
          workers_at_node_.TakeFirst(partner, [&](int32_t id) {
            return !assignment_.IsWorkerMatched(id) &&
                   (!options_.check_liveness ||
                    CanServe(instance().worker(id), r, velocity,
                             FeasibilityPolicy::kDispatchAtWorkerStart));
          });
      if (worker_id != NodeWaitLists::kNone) {
        assignment_.Add(worker_id, r.id, time);
        waiting_workers_.Erase(worker_id);
        matched = true;
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
        tasks_at_node_.PushBack(node, r.id);
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
    // Node wait lists and cursors follow the guide and restart empty. The
    // greedy-fallback waiting pools are guide-independent (keyed by object
    // id and initial location), so objects dropped from a node list stay
    // reachable through the fallback path.
    workers_at_node_.Reset(guide_->num_worker_nodes());
    tasks_at_node_.Reset(guide_->num_task_nodes());
    std::fill(worker_type_cursor_.begin(), worker_type_cursor_.end(), 0u);
    std::fill(task_type_cursor_.begin(), task_type_cursor_.end(), 0u);
    return true;
  }

 private:
  void ExpireBefore(double time) {
    waiting_workers_.ExpireBefore(time);
    waiting_tasks_.ExpireBefore(time);
  }

  std::shared_ptr<const OfflineGuide> guide_;
  PolarOptions options_;
  NodeWaitLists workers_at_node_;  // Indexed by worker node.
  NodeWaitLists tasks_at_node_;    // Indexed by task node.
  std::vector<uint32_t> worker_type_cursor_;
  std::vector<uint32_t> task_type_cursor_;
  EngineWaitingPool waiting_workers_;
  EngineWaitingPool waiting_tasks_;
  ReachLimits limits_;
};

}  // namespace

HybridPolarOp::HybridPolarOp(std::shared_ptr<const OfflineGuide> guide,
                             PolarOptions options)
    : guide_(std::move(guide)), options_(options) {}

std::unique_ptr<AssignmentSession> HybridPolarOp::StartSession(
    const Instance& instance) {
  return std::make_unique<HybridPolarOpSession>(instance, guide_, options_);
}

}  // namespace ftoa
