#include "oracles/vector_queue_polar_op.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "oracles/grid_waiting_pool.h"

namespace ftoa {
namespace testing {

namespace {

/// FIFO of objects waiting at a guide node, with O(1) push/pop via a head
/// cursor (no element erasure).
struct WaitQueue {
  std::vector<int32_t> items;
  size_t head = 0;

  bool empty() const { return head >= items.size(); }
  void Push(int32_t id) { items.push_back(id); }
  int32_t Pop() { return items[head++]; }
  int32_t Peek() const { return items[head]; }
};

/// Node ids of each type on both sides, in creation order.
struct NodesByType {
  std::vector<std::vector<GuideNodeId>> workers;
  std::vector<std::vector<GuideNodeId>> tasks;

  explicit NodesByType(const OfflineGuide& guide)
      : workers(static_cast<size_t>(guide.spacetime().num_types())),
        tasks(static_cast<size_t>(guide.spacetime().num_types())) {
    for (size_t i = 0; i < guide.worker_nodes().size(); ++i) {
      workers[static_cast<size_t>(guide.worker_nodes()[i].type)].push_back(
          static_cast<GuideNodeId>(i));
    }
    for (size_t i = 0; i < guide.task_nodes().size(); ++i) {
      tasks[static_cast<size_t>(guide.task_nodes()[i].type)].push_back(
          static_cast<GuideNodeId>(i));
    }
  }
};

/// Guide-dependent state shared by both sessions: the node lists, the
/// per-node wait queues and the round-robin cursors.
struct GuidedState {
  std::shared_ptr<const OfflineGuide> guide;
  NodesByType nodes;
  std::vector<WaitQueue> waiting_at_worker_node;
  std::vector<WaitQueue> waiting_at_task_node;
  std::vector<uint32_t> worker_type_cursor;
  std::vector<uint32_t> task_type_cursor;

  explicit GuidedState(std::shared_ptr<const OfflineGuide> g)
      : guide(std::move(g)),
        nodes(*guide),
        waiting_at_worker_node(static_cast<size_t>(guide->num_worker_nodes())),
        waiting_at_task_node(static_cast<size_t>(guide->num_task_nodes())),
        worker_type_cursor(static_cast<size_t>(guide->spacetime().num_types()),
                           0),
        task_type_cursor(static_cast<size_t>(guide->spacetime().num_types()),
                         0) {}

  /// Rebuilds everything empty against `g`; false when `g` is null or its
  /// type space differs.
  bool Swap(std::shared_ptr<const OfflineGuide> g) {
    if (g == nullptr ||
        g->spacetime().num_types() != guide->spacetime().num_types()) {
      return false;
    }
    *this = GuidedState(std::move(g));
    return true;
  }
};

class VectorQueuePolarOpSession final : public AssignmentSessionBase {
 public:
  VectorQueuePolarOpSession(const Instance& instance,
                            std::shared_ptr<const OfflineGuide> guide,
                            PolarOptions options)
      : AssignmentSessionBase(instance),
        state_(std::move(guide)),
        options_(options) {}

  void OnWorker(WorkerId worker, double time) override {
    const OfflineGuide& guide = *state_.guide;
    const SpacetimeSpec& st = guide.spacetime();
    const Worker& w = instance().worker(worker);
    const TypeId type = st.TypeOf(w.location, w.start);
    const auto& nodes = state_.nodes.workers[static_cast<size_t>(type)];
    if (nodes.empty()) {
      ++trace_.ignored_workers;
      return;
    }
    uint32_t& cursor = state_.worker_type_cursor[static_cast<size_t>(type)];
    const GuideNodeId node =
        nodes[static_cast<size_t>(cursor++ % nodes.size())];
    const GuideNodeId partner =
        guide.worker_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;
    WaitQueue& queue =
        state_.waiting_at_task_node[static_cast<size_t>(partner)];
    bool matched = false;
    while (!queue.empty()) {
      const int32_t task_id = queue.Peek();
      const Task& r = instance().task(task_id);
      if (options_.check_liveness &&
          !CanServe(w, r, instance().velocity(),
                    FeasibilityPolicy::kDispatchAtWorkerStart)) {
        queue.Pop();
        continue;
      }
      queue.Pop();
      assignment_.Add(w.id, r.id, time);
      matched = true;
      break;
    }
    if (!matched) {
      state_.waiting_at_worker_node[static_cast<size_t>(node)].Push(w.id);
      if (collect_dispatches()) {
        const TypeId target_type =
            guide.task_nodes()[static_cast<size_t>(partner)].type;
        trace_.dispatches.push_back(DispatchRecord{
            w.id, st.RepresentativeLocation(target_type), time});
      }
    }
  }

  void OnTask(TaskId task, double time) override {
    const OfflineGuide& guide = *state_.guide;
    const SpacetimeSpec& st = guide.spacetime();
    const Task& r = instance().task(task);
    const TypeId type = st.TypeOf(r.location, r.start);
    const auto& nodes = state_.nodes.tasks[static_cast<size_t>(type)];
    if (nodes.empty()) {
      ++trace_.ignored_tasks;
      return;
    }
    uint32_t& cursor = state_.task_type_cursor[static_cast<size_t>(type)];
    const GuideNodeId node =
        nodes[static_cast<size_t>(cursor++ % nodes.size())];
    const GuideNodeId partner =
        guide.task_nodes()[static_cast<size_t>(node)].partner;
    if (partner == -1) return;
    WaitQueue& queue =
        state_.waiting_at_worker_node[static_cast<size_t>(partner)];
    bool matched = false;
    while (!queue.empty()) {
      const int32_t worker_id = queue.Peek();
      const Worker& w = instance().worker(worker_id);
      if (options_.check_liveness &&
          !CanServe(w, r, instance().velocity(),
                    FeasibilityPolicy::kDispatchAtWorkerStart)) {
        queue.Pop();
        continue;
      }
      queue.Pop();
      assignment_.Add(w.id, r.id, time);
      matched = true;
      break;
    }
    if (!matched) {
      state_.waiting_at_task_node[static_cast<size_t>(node)].Push(r.id);
    }
  }

  bool SwapGuide(std::shared_ptr<const OfflineGuide> guide) override {
    return state_.Swap(std::move(guide));
  }

 private:
  GuidedState state_;
  PolarOptions options_;
};

class VectorQueueHybridPolarOpSession final : public AssignmentSessionBase {
 public:
  VectorQueueHybridPolarOpSession(const Instance& instance,
                                  std::shared_ptr<const OfflineGuide> guide,
                                  PolarOptions options)
      : AssignmentSessionBase(instance),
        state_(std::move(guide)),
        options_(options),
        waiting_workers_(state_.guide->spacetime().grid(), &trace_.retrieval),
        waiting_tasks_(state_.guide->spacetime().grid(), &trace_.retrieval),
        limits_{instance.MaxTaskDuration(), instance.MaxWorkerDuration(),
                instance.velocity()} {}

  void OnWorker(WorkerId worker, double time) override {
    const OfflineGuide& guide = *state_.guide;
    const SpacetimeSpec& st = guide.spacetime();
    const double velocity = instance().velocity();
    const Worker& w = instance().worker(worker);
    bool matched = false;

    const TypeId type = st.TypeOf(w.location, w.start);
    const auto& nodes = state_.nodes.workers[static_cast<size_t>(type)];
    GuideNodeId node = -1;
    GuideNodeId partner = -1;
    if (!nodes.empty()) {
      uint32_t& cursor = state_.worker_type_cursor[static_cast<size_t>(type)];
      node = nodes[static_cast<size_t>(cursor++ % nodes.size())];
      partner = guide.worker_nodes()[static_cast<size_t>(node)].partner;
    } else {
      ++trace_.ignored_workers;
    }
    if (partner != -1) {
      WaitQueue& queue =
          state_.waiting_at_task_node[static_cast<size_t>(partner)];
      while (!queue.empty()) {
        const int32_t task_id = queue.Pop();
        if (assignment_.IsTaskMatched(task_id)) continue;
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
        state_.waiting_at_worker_node[static_cast<size_t>(node)].Push(w.id);
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
    const OfflineGuide& guide = *state_.guide;
    const SpacetimeSpec& st = guide.spacetime();
    const double velocity = instance().velocity();
    const Task& r = instance().task(task);
    bool matched = false;

    const TypeId type = st.TypeOf(r.location, r.start);
    const auto& nodes = state_.nodes.tasks[static_cast<size_t>(type)];
    GuideNodeId node = -1;
    GuideNodeId partner = -1;
    if (!nodes.empty()) {
      uint32_t& cursor = state_.task_type_cursor[static_cast<size_t>(type)];
      node = nodes[static_cast<size_t>(cursor++ % nodes.size())];
      partner = guide.task_nodes()[static_cast<size_t>(node)].partner;
    } else {
      ++trace_.ignored_tasks;
    }
    if (partner != -1) {
      WaitQueue& queue =
          state_.waiting_at_worker_node[static_cast<size_t>(partner)];
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
        state_.waiting_at_task_node[static_cast<size_t>(node)].Push(r.id);
      }
      waiting_tasks_.Insert(r.id, r.location, r.start, r.Deadline());
    }
  }

  bool SwapGuide(std::shared_ptr<const OfflineGuide> guide) override {
    return state_.Swap(std::move(guide));
  }

 private:
  GuidedState state_;
  PolarOptions options_;
  GridWaitingPool waiting_workers_;
  GridWaitingPool waiting_tasks_;
  ReachLimits limits_;
};

}  // namespace

std::unique_ptr<AssignmentSession> VectorQueuePolarOp::StartSession(
    const Instance& instance) {
  return std::make_unique<VectorQueuePolarOpSession>(instance, guide_,
                                                     options_);
}

std::unique_ptr<AssignmentSession> VectorQueueHybridPolarOp::StartSession(
    const Instance& instance) {
  return std::make_unique<VectorQueueHybridPolarOpSession>(instance, guide_,
                                                           options_);
}

}  // namespace testing
}  // namespace ftoa
