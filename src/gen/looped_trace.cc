#include "gen/looped_trace.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

namespace ftoa {

namespace {

CityProfile ScaledProfile(CityProfile profile, double scale) {
  if (scale > 0.0 && scale != 1.0) {
    profile.workers_per_day *= scale;
    profile.tasks_per_day *= scale;
  }
  return profile;
}

}  // namespace

Status LoopedTraceSource::CheckOptions(const CityProfile& profile,
                                       const Options& options) {
  const double scale = options.scale;
  if (!(scale > 0.0 && std::isfinite(scale))) {
    return Status::InvalidArgument(
        "LoopedTraceSource: trace scale must be finite and positive");
  }
  for (const double per_day :
       {profile.workers_per_day * profile.supply_surplus,
        profile.tasks_per_day}) {
    if (!(per_day * scale <= kMaxObjectsPerDay)) {
      return Status::InvalidArgument(
          "LoopedTraceSource: trace scale " + std::to_string(scale) +
          " asks for more than " +
          std::to_string(static_cast<int64_t>(kMaxObjectsPerDay)) +
          " objects of one side per day");
    }
  }
  return Status::OK();
}

LoopedTraceSource::LoopedTraceSource(CityProfile profile)
    : LoopedTraceSource(std::move(profile), Options()) {}

LoopedTraceSource::LoopedTraceSource(CityProfile profile, Options options)
    : generator_(ScaledProfile(std::move(profile), options.scale)) {
  const int history = generator_.profile().history_days;
  loop_days_ = options.loop_days <= 0 ? history
                                      : std::min(options.loop_days, history);
  loop_days_ = std::max(1, loop_days_);
}

double LoopedTraceSource::day_horizon() const {
  return static_cast<double>(generator_.profile().slots_per_day);
}

Result<std::vector<StreamArrival>> LoopedTraceSource::ArrivalsForDay(
    int64_t day) const {
  std::vector<StreamArrival> arrivals;
  FTOA_RETURN_NOT_OK(FillArrivalsForDay(day, &arrivals));
  return arrivals;
}

Status LoopedTraceSource::FillArrivalsForDay(
    int64_t day, std::vector<StreamArrival>* out) const {
  if (day < 0) {
    return Status::OutOfRange("LoopedTraceSource: negative stream day");
  }
  const int source_day = static_cast<int>(day % loop_days_);
  FTOA_ASSIGN_OR_RETURN(const Instance instance,
                        generator_.GenerateInstanceForDay(source_day));
  const double offset = static_cast<double>(day) * day_horizon();

  // Linear-time ordering, written straight into place: a counting sort on
  // a key monotone in time (about one arrival per key), then an insertion
  // pass with ArrivesBefore. Monotone keys leave out of order only
  // arrivals that share a key, so the insertion pass ends in exactly the
  // comparator's order.
  const size_t n = instance.num_workers() + instance.num_tasks();
  const double keys_per_unit = static_cast<double>(n) / day_horizon();
  const auto key_of = [&](double time) {
    const double key = std::floor((time - offset) * keys_per_unit);
    return std::min(n - 1, static_cast<size_t>(std::max(0.0, key)));
  };
  std::vector<uint32_t> next(n + 1, 0);
  for (const Worker& w : instance.workers()) {
    ++next[key_of(offset + w.start) + 1];
  }
  for (const Task& r : instance.tasks()) {
    ++next[key_of(offset + r.start) + 1];
  }
  for (size_t k = 1; k <= n; ++k) next[k] += next[k - 1];

  std::vector<StreamArrival>& arrivals = *out;
  arrivals.resize(n);
  for (const Worker& w : instance.workers()) {
    const double time = offset + w.start;
    arrivals[next[key_of(time)]++] = StreamArrival{
        ObjectKind::kWorker, time, w.location, w.duration, w.id, day};
  }
  for (const Task& r : instance.tasks()) {
    const double time = offset + r.start;
    arrivals[next[key_of(time)]++] = StreamArrival{
        ObjectKind::kTask, time, r.location, r.duration, r.id, day};
  }
  for (size_t i = 1; i < n; ++i) {
    if (!ArrivesBefore(arrivals[i], arrivals[i - 1])) continue;
    const StreamArrival moving = arrivals[i];
    size_t j = i;
    for (; j > 0 && ArrivesBefore(moving, arrivals[j - 1]); --j) {
      arrivals[j] = arrivals[j - 1];
    }
    arrivals[j] = moving;
  }
  return Status::OK();
}

Result<Instance> LoopedTraceSource::FiniteInstance(int num_days) const {
  if (num_days < 1) {
    return Status::InvalidArgument(
        "LoopedTraceSource::FiniteInstance: num_days must be >= 1");
  }
  const CityProfile& profile = generator_.profile();
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  for (int day = 0; day < num_days; ++day) {
    FTOA_ASSIGN_OR_RETURN(const std::vector<StreamArrival> arrivals,
                          ArrivalsForDay(day));
    for (const StreamArrival& arrival : arrivals) {
      if (arrival.kind == ObjectKind::kWorker) {
        workers.push_back(Worker{-1, arrival.location, arrival.time,
                                 arrival.duration});
      } else {
        tasks.push_back(Task{-1, arrival.location, arrival.time,
                             arrival.duration});
      }
    }
  }
  const SpacetimeSpec day_spec = DaySpacetime();
  const SlotSpec slots(day_horizon() * num_days,
                       profile.slots_per_day * num_days);
  return Instance(SpacetimeSpec(slots, day_spec.grid()), profile.velocity,
                  std::move(workers), std::move(tasks));
}

}  // namespace ftoa
