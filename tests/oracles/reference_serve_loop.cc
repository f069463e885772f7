#include "oracles/reference_serve_loop.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "serve/fault_injector.h"
#include "sim/sharded_dispatcher.h"

namespace ftoa {
namespace testing {

namespace {

using Pairs = std::vector<std::pair<int64_t, int64_t>>;

class ReferenceLoop {
 public:
  ReferenceLoop(const CityProfile& profile,
                const LoopedTraceSource::Options& trace,
                const ServiceOptions& options, FaultInjector faults,
                const GuideOptions& guide)
      : source_(profile, trace),
        options_(options),
        faults_(std::move(faults)),
        generator_(profile.velocity, guide),
        spd_(profile.slots_per_day),
        spacetime_(source_.DaySpacetime()) {}

  Result<Pairs> Run(const std::vector<WindowMetrics>& rows) {
    // Publish schedule: an epoch change at window w published the guide
    // solved for window w - age.
    std::vector<int64_t> publish_from(rows.size(), -1);
    int64_t epoch = 0;
    for (size_t w = 0; w < rows.size(); ++w) {
      if (rows[w].guide_epoch != epoch) {
        publish_from[w] = rows[w].window - rows[w].guide_age_windows;
        epoch = rows[w].guide_epoch;
      }
    }
    const int64_t windows = static_cast<int64_t>(rows.size());
    reconciled_.assign(rows.size(), 0);
    const int64_t per_segment =
        options_.windows_per_segment <= 0
            ? spd_
            : std::min<int64_t>(options_.windows_per_segment, spd_);
    for (int64_t begin = 0; begin < windows;) {
      const int64_t end = std::min(
          {begin + per_segment, (begin / spd_ + 1) * spd_, windows});
      FTOA_RETURN_NOT_OK(RunSegment(
          begin, end, publish_from,
          rows[static_cast<size_t>(begin)].degraded_greedy));
      begin = end;
    }
    return pairs_;
  }

  /// Per window: the pairs reconciliation recovered in the segment that
  /// rotated there.
  const std::vector<int64_t>& reconciled() const { return reconciled_; }

 private:
  /// An admitted object on the absolute stream axis.
  struct Object {
    ObjectKind kind;
    Point location;
    double abs_start;
    double duration;
    bool matched;
  };
  /// A universe member on the segment day's relative axis.
  struct Member {
    int64_t stream_id;
    double rel_time;
    double duration;
  };

  Status RunSegment(int64_t begin, int64_t end,
                    const std::vector<int64_t>& publish_from,
                    bool degraded) {
    const int64_t first_fresh = static_cast<int64_t>(objects_.size());
    std::shared_ptr<const OfflineGuide> start_guide;
    std::vector<std::pair<int64_t, std::shared_ptr<const OfflineGuide>>>
        swaps;
    for (int64_t window = begin; window < end; ++window) {
      if (window % spd_ == 0) FTOA_RETURN_NOT_OK(StartDay(window / spd_));
      const int64_t from = publish_from[static_cast<size_t>(window)];
      if (from >= 0) {
        FTOA_ASSIGN_OR_RETURN(OfflineGuide guide,
                              generator_.Generate(PredictionFor(from)));
        guide_ = std::make_shared<const OfflineGuide>(std::move(guide));
        if (window != begin) swaps.emplace_back(window, guide_);
      }
      if (window == begin) start_guide = guide_;
      Admit(window);
    }

    // The universe: every earlier object still unmatched and unexpired at
    // the segment start (re-timed to this day), plus the admissions, in
    // session arrival order.
    const double now = static_cast<double>(begin);
    const double day_start =
        static_cast<double>(begin / spd_) * source_.day_horizon();
    std::vector<Member> universe;
    for (int64_t id = 0; id < static_cast<int64_t>(objects_.size()); ++id) {
      const Object& object = objects_[static_cast<size_t>(id)];
      double rel = object.abs_start - day_start;
      double duration = object.duration;
      if (id < first_fresh) {
        if (object.matched || object.abs_start + object.duration <= now) {
          continue;
        }
        if (rel < 0.0) {
          duration = object.abs_start + object.duration - day_start;
          rel = 0.0;
        }
        if (duration <= 0.0) continue;
      }
      universe.push_back(Member{id, rel, duration});
    }
    std::sort(universe.begin(), universe.end(),
              [this](const Member& a, const Member& b) {
                if (a.rel_time != b.rel_time) return a.rel_time < b.rel_time;
                const ObjectKind ka = objects_[static_cast<size_t>(
                                                   a.stream_id)].kind;
                const ObjectKind kb = objects_[static_cast<size_t>(
                                                   b.stream_id)].kind;
                if (ka != kb) return ka == ObjectKind::kWorker;
                return a.stream_id < b.stream_id;
              });

    std::vector<Worker> workers;
    std::vector<Task> tasks;
    std::vector<int64_t> worker_stream, task_stream;
    std::vector<int32_t> local_id(universe.size(), -1);
    for (size_t i = 0; i < universe.size(); ++i) {
      const Member& member = universe[i];
      const Object& object = objects_[static_cast<size_t>(member.stream_id)];
      if (object.kind == ObjectKind::kWorker) {
        local_id[i] = static_cast<int32_t>(workers.size());
        workers.push_back(
            Worker{-1, object.location, member.rel_time, member.duration});
        worker_stream.push_back(member.stream_id);
      } else {
        local_id[i] = static_cast<int32_t>(tasks.size());
        tasks.push_back(
            Task{-1, object.location, member.rel_time, member.duration});
        task_stream.push_back(member.stream_id);
      }
    }
    const Instance instance(spacetime_,
                            source_.generator().profile().velocity,
                            std::move(workers), std::move(tasks));

    AlgorithmDeps deps;
    deps.guide = start_guide;
    deps.retrieval = options_.retrieval;
    FTOA_ASSIGN_OR_RETURN(
        std::unique_ptr<OnlineAlgorithm> algorithm,
        CreateAlgorithm(degraded ? "simple-greedy" : options_.algorithm,
                        deps));
    ShardedOptions sharded;
    sharded.num_shards = std::max(1, options_.num_shards);
    sharded.num_threads = options_.shard_threads;
    sharded.reconcile = options_.reconcile;
    ShardedDispatcher dispatcher(algorithm.get(), sharded);
    std::unique_ptr<ShardedSession> session = dispatcher.StartSession(instance);
    session->set_collect_dispatches(false);

    // A dropped (window, lane) handoff loses the lane's arrivals of that
    // window; they stay unmatched and rejoin the next carryover.
    std::vector<char> lane_dropped(static_cast<size_t>(sharded.num_shards),
                                   0);
    size_t cursor = 0;
    const auto feed_until = [&](double rel_bound) {
      for (; cursor < universe.size() && universe[cursor].rel_time < rel_bound;
           ++cursor) {
        const Member& member = universe[cursor];
        const Object& object =
            objects_[static_cast<size_t>(member.stream_id)];
        const int lane = session->router().Route(
            object.kind, local_id[cursor], object.location);
        if (lane_dropped[static_cast<size_t>(lane)]) continue;
        if (object.kind == ObjectKind::kWorker) {
          session->OnWorker(local_id[cursor], member.rel_time);
        } else {
          session->OnTask(local_id[cursor], member.rel_time);
        }
      }
    };
    size_t swap_cursor = 0;
    for (int64_t window = begin; window < end; ++window) {
      const double rel_start = static_cast<double>(window % spd_);
      if (window == begin) feed_until(rel_start);
      session->AdvanceTo(rel_start);
      while (swap_cursor < swaps.size() &&
             swaps[swap_cursor].first <= window) {
        session->SwapGuide(swaps[swap_cursor].second);
        ++swap_cursor;
      }
      for (int lane = 0; lane < sharded.num_shards; ++lane) {
        lane_dropped[static_cast<size_t>(lane)] =
            faults_.ShouldDropHandoffBatch(window, lane) ? 1 : 0;
      }
      feed_until(rel_start + 1.0);
    }

    FTOA_ASSIGN_OR_RETURN(ShardedRunResult result, session->Finish());
    reconciled_[static_cast<size_t>(end - 1)] +=
        result.reconcile.recovered_pairs;
    for (const MatchedPair& pair : result.assignment.pairs()) {
      const int64_t worker = worker_stream[static_cast<size_t>(pair.worker)];
      const int64_t task = task_stream[static_cast<size_t>(pair.task)];
      objects_[static_cast<size_t>(worker)].matched = true;
      objects_[static_cast<size_t>(task)].matched = true;
      pairs_.emplace_back(worker, task);
    }
    return Status::OK();
  }

  Status StartDay(int64_t day) {
    FTOA_ASSIGN_OR_RETURN(day_arrivals_, source_.ArrivalsForDay(day));
    day_cursor_ = 0;
    if (day > 0) {
      realized_workers_.push_back(day_workers_);
      realized_tasks_.push_back(day_tasks_);
    }
    day_workers_.assign(static_cast<size_t>(spacetime_.num_types()), 0);
    day_tasks_.assign(static_cast<size_t>(spacetime_.num_types()), 0);
    return Status::OK();
  }

  /// The previous day's realized admissions, or the generator's history
  /// for source day 0 before any day completed.
  PredictionMatrix PredictionFor(int64_t window) const {
    PredictionMatrix prediction(spacetime_);
    const int64_t day = window / spd_;
    for (int type = 0; type < spacetime_.num_types(); ++type) {
      const size_t t = static_cast<size_t>(type);
      if (day == 0) {
        prediction.set_workers_at(type, history_workers_[t]);
        prediction.set_tasks_at(type, history_tasks_[t]);
      } else {
        const size_t prev = static_cast<size_t>(day - 1);
        prediction.set_workers_at(type, realized_workers_[prev][t]);
        prediction.set_tasks_at(type, realized_tasks_[prev][t]);
      }
    }
    return prediction;
  }

  /// Offers the window's arrivals (flash clones included), sheds the
  /// max_queue_depth overflow oldest-deadline-first, and admits the rest
  /// under consecutive stream ids.
  void Admit(int64_t window) {
    const double window_end = static_cast<double>(window) + 1.0;
    std::vector<StreamArrival> batch;
    for (; day_cursor_ < day_arrivals_.size() &&
           day_arrivals_[day_cursor_].time < window_end;
         ++day_cursor_) {
      batch.push_back(day_arrivals_[day_cursor_]);
    }
    const size_t base = batch.size();
    const double factor = faults_.FlashCrowdFactor(window);
    if (factor > 1.0 && base > 0) {
      const size_t target = static_cast<size_t>(
          std::llround(static_cast<double>(base) * factor));
      for (size_t i = base; i < target; ++i) batch.push_back(batch[i % base]);
      std::sort(batch.begin(), batch.end(),
                [](const StreamArrival& a, const StreamArrival& b) {
                  if (a.time != b.time) return a.time < b.time;
                  if (a.kind != b.kind) return a.kind == ObjectKind::kWorker;
                  return a.source_id < b.source_id;
                });
    }
    std::vector<char> shed(batch.size(), 0);
    const int64_t overflow =
        options_.max_queue_depth > 0
            ? static_cast<int64_t>(batch.size()) - options_.max_queue_depth
            : 0;
    if (overflow > 0) {
      std::vector<size_t> order(batch.size());
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&batch](size_t a, size_t b) {
        if (batch[a].Deadline() != batch[b].Deadline()) {
          return batch[a].Deadline() < batch[b].Deadline();
        }
        return a < b;
      });
      for (int64_t i = 0; i < overflow; ++i) shed[order[i]] = 1;
    }
    const double day_start =
        static_cast<double>(window / spd_) * source_.day_horizon();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (shed[i]) continue;
      const StreamArrival& arrival = batch[i];
      objects_.push_back(Object{arrival.kind, arrival.location, arrival.time,
                                arrival.duration, false});
      const size_t type = static_cast<size_t>(
          spacetime_.TypeOf(arrival.location, arrival.time - day_start));
      ++(arrival.kind == ObjectKind::kWorker ? day_workers_
                                             : day_tasks_)[type];
    }
  }

  LoopedTraceSource source_;
  ServiceOptions options_;
  FaultInjector faults_;
  GuideGenerator generator_;
  int64_t spd_;
  SpacetimeSpec spacetime_;
  std::vector<int> history_workers_ =
      source_.generator().SampleDayCounts(DemandSide::kWorkers, 0);
  std::vector<int> history_tasks_ =
      source_.generator().SampleDayCounts(DemandSide::kTasks, 0);

  std::shared_ptr<const OfflineGuide> guide_;
  std::vector<StreamArrival> day_arrivals_;
  size_t day_cursor_ = 0;
  std::vector<int32_t> day_workers_, day_tasks_;
  std::vector<std::vector<int32_t>> realized_workers_, realized_tasks_;
  std::vector<Object> objects_;  ///< Indexed by stream id; never freed.
  Pairs pairs_;
  std::vector<int64_t> reconciled_;
};

}  // namespace

Result<Pairs> ReferenceServeLoop(const CityProfile& profile,
                                 const LoopedTraceSource::Options& trace,
                                 const ServiceOptions& options,
                                 const std::vector<WindowMetrics>& rows,
                                 std::vector<int64_t>* reconciled) {
  if (options.slo_p99_ms > 0.0) {
    return Status::InvalidArgument(
        "ReferenceServeLoop: slo_p99_ms > 0 is not modeled");
  }
  if (options.max_live_objects > 0) {
    return Status::InvalidArgument(
        "ReferenceServeLoop: max_live_objects > 0 is not modeled");
  }
  if (!options.refresh_predictor.empty()) {
    return Status::InvalidArgument(
        "ReferenceServeLoop: refresh_predictor is not modeled");
  }
  FTOA_ASSIGN_OR_RETURN(FaultInjector faults,
                        FaultInjector::Parse(options.faults,
                                             options.fault_seed));
  GuideOptions guide = options.guide;
  guide.worker_duration = profile.worker_duration;
  guide.task_duration = profile.task_duration;
  guide.refresh_mode = GuideRefreshMode::kCold;
  ReferenceLoop loop(profile, trace, options, std::move(faults), guide);
  FTOA_ASSIGN_OR_RETURN(Pairs pairs, loop.Run(rows));
  if (reconciled != nullptr) *reconciled = loop.reconciled();
  return pairs;
}

}  // namespace testing
}  // namespace ftoa
