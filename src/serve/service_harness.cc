#include "serve/service_harness.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "core/algorithm_registry.h"
#include "prediction/dataset.h"
#include "prediction/registry.h"
#include "sim/metrics.h"
#include "sim/sharded_dispatcher.h"
#include "util/memory_tracker.h"
#include "util/stopwatch.h"

namespace ftoa {

void WindowMetrics::FillLatencies(std::vector<int64_t>& sample_ns) {
  latency_samples = static_cast<int64_t>(sample_ns.size());
  p50_ms = static_cast<double>(NearestRankPercentile(sample_ns, 0.50)) / 1e6;
  p99_ms = static_cast<double>(NearestRankPercentile(sample_ns, 0.99)) / 1e6;
  if (!sample_ns.empty()) {
    max_ms = static_cast<double>(
                 *std::max_element(sample_ns.begin(), sample_ns.end())) /
             1e6;
  }
}

ServiceHarness::ServiceHarness(LoopedTraceSource source,
                               ServiceOptions options, FaultInjector faults)
    : source_(std::move(source)),
      options_(std::move(options)),
      faults_(std::move(faults)) {
  spd_ = source_.generator().profile().slots_per_day;
  if (options_.analytical_slice > 0) {
    // Analytical isolation: one pool shared by the shard actors and the
    // refresher's bounded slice. Sized like the dispatcher would size its
    // own pool, so sharing changes who owns the workers, not how many
    // serve the shards.
    shared_pool_ = std::make_unique<ThreadPool>(
        ShardedDispatcher::ResolveNumThreads(options_.shard_threads,
                                             options_.num_shards));
    options_.refresh.shared_pool = shared_pool_.get();
    options_.refresh.slice_tokens = options_.analytical_slice;
  }
  refresher_ = std::make_unique<GuideRefresher>(
      source_.generator().profile().velocity, options_.guide,
      options_.refresh, faults_.empty() ? nullptr : &faults_);
  const int num_types = source_.DaySpacetime().num_types();
  day_workers_.assign(num_types, 0);
  day_tasks_.assign(num_types, 0);
  helper_ = std::make_unique<ThreadPool>(1);
}

ServiceHarness::~ServiceHarness() { JoinDayAhead(); }

Result<std::unique_ptr<ServiceHarness>> ServiceHarness::Create(
    const CityProfile& profile, const LoopedTraceSource::Options& trace,
    const ServiceOptions& options) {
  ServiceOptions resolved = options;
  const std::vector<std::string> names = AllAlgorithmNames();
  if (std::find(names.begin(), names.end(), resolved.algorithm) ==
      names.end()) {
    std::string valid;
    for (const std::string& name : names) {
      if (!valid.empty()) valid += ", ";
      valid += name;
    }
    return Status::NotFound("ServiceHarness: unknown algorithm '" +
                            resolved.algorithm + "' (valid: " + valid + ")");
  }
  FTOA_ASSIGN_OR_RETURN(
      FaultInjector faults,
      FaultInjector::Parse(resolved.faults, resolved.fault_seed));
  if (!AlgorithmNeedsGuide(resolved.algorithm)) {
    for (const FaultSpec& fault : faults.faults()) {
      if (fault.name == "guide-fail") {
        return Status::InvalidArgument(
            "ServiceHarness: guide-fail fault with algorithm '" +
            resolved.algorithm +
            "', which reads no guide and so runs no guide refresh");
      }
    }
  }
  if (!resolved.refresh_predictor.empty()) {
    // Validate the name eagerly (CreatePredictor's unknown-name error),
    // so a typo fails Create instead of the first day boundary.
    FTOA_RETURN_NOT_OK(CreatePredictor(resolved.refresh_predictor).status());
  }
  // The expiry calendar buckets every deadline by its ceiling, so it
  // needs finite, nonnegative durations of bounded length.
  for (const double duration :
       {profile.worker_duration, profile.task_duration}) {
    if (!(duration >= 0.0 && duration <= kMaxDurationWindows)) {
      return Status::InvalidArgument(
          "ServiceHarness: worker and task durations must be finite, "
          "nonnegative and at most " +
          std::to_string(static_cast<int64_t>(kMaxDurationWindows)) +
          " windows");
    }
  }
  if (!(profile.velocity > 0.0 && std::isfinite(profile.velocity))) {
    return Status::InvalidArgument(
        "ServiceHarness: velocity must be finite and positive");
  }
  FTOA_RETURN_NOT_OK(LoopedTraceSource::CheckOptions(profile, trace));
  if (resolved.num_shards < 0) {
    return Status::InvalidArgument("ServiceHarness: num_shards is negative");
  }
  if (resolved.max_queue_depth < 0 || resolved.max_live_objects < 0) {
    return Status::InvalidArgument(
        "ServiceHarness: max_queue_depth and max_live_objects must be "
        "nonnegative (0 = unlimited)");
  }
  if (!(resolved.slo_p99_ms >= 0.0 && std::isfinite(resolved.slo_p99_ms))) {
    return Status::InvalidArgument(
        "ServiceHarness: slo_p99_ms must be finite and nonnegative "
        "(0 = off)");
  }
  resolved.analytical_slice = std::max(0, resolved.analytical_slice);

  resolved.windows_per_segment =
      resolved.windows_per_segment <= 0
          ? profile.slots_per_day
          : std::min(resolved.windows_per_segment, profile.slots_per_day);
  resolved.refresh_period_windows = resolved.refresh_period_windows <= 0
                                        ? profile.slots_per_day
                                        : resolved.refresh_period_windows;
  resolved.num_shards = std::max(1, resolved.num_shards);
  resolved.overload_shed_fraction =
      std::min(1.0, std::max(0.0, resolved.overload_shed_fraction));
  // The guide's type-level deadline test must use the durations the trace
  // actually realizes, not GuideOptions' free-standing defaults.
  resolved.guide.worker_duration = profile.worker_duration;
  resolved.guide.task_duration = profile.task_duration;

  return std::unique_ptr<ServiceHarness>(
      new ServiceHarness(LoopedTraceSource(profile, trace),
                         std::move(resolved), std::move(faults)));
}

void ServiceHarness::StartDayAhead(int64_t day) {
  JoinDayAhead();
  // Tomorrow's first due inline refresh predicts from today's realized
  // counts, complete now that today's last window is admitted. A learned
  // predictor is refitted only at the day boundary, a background refresh
  // solves on its own thread, and a due window past tomorrow predicts from
  // tomorrow's counts: none of those is prepared.
  int64_t guide_window = -1;
  std::optional<PredictionMatrix> prediction;
  if (AlgorithmNeedsGuide(options_.algorithm) &&
      !options_.background_refresh && options_.refresh_predictor.empty()) {
    const int64_t period = options_.refresh_period_windows;
    const int64_t due = (day * spd_ + period - 1) / period * period;
    if (due < (day + 1) * spd_) {
      guide_window = due;
      prediction = CountsPrediction(day_workers_, day_tasks_);
    }
  }
  auto arrivals = std::make_shared<std::promise<Status>>();
  day_ahead_.guide_window = guide_window;
  day_ahead_.waited_ms = 0.0;
  day_ahead_.arrivals_claimed.store(false);
  day_ahead_.arrivals = arrivals->get_future();
  // The guide solve runs first: it cannot be split, and the serving
  // thread, which needs the arrivals first, fills them itself when the
  // helper has not started them (TakeArrivals), so it never waits on both
  // steps. Until the job is joined the serving thread touches neither the
  // refresher's inline state (no refresh is due before guide_window) nor,
  // unless it claimed the fill, day_arrivals_ (the day's windows are all
  // admitted).
  day_ahead_.done = helper_->Submit(
      [this, day, guide_window, arrivals,
       prediction = std::move(prediction)]() mutable {
        if (guide_window >= 0) {
          refresher_->Prepare(std::move(*prediction), guide_window);
        }
        if (!day_ahead_.arrivals_claimed.exchange(true)) {
          arrivals->set_value(source_.FillArrivalsForDay(day, &day_arrivals_));
        }
      });
}

void ServiceHarness::JoinDayAhead() {
  if (day_ahead_.done.valid()) day_ahead_.done.wait();
}

Status ServiceHarness::TakeArrivals(int64_t day) {
  if (buffered_day_ == day) return Status::OK();
  // Every day but the first was handed to the helper when the day before
  // it ended (windows run in order).
  std::future<Status> helper = std::move(day_ahead_.arrivals);
  const bool helper_fills =
      helper.valid() && day_ahead_.arrivals_claimed.exchange(true);
  FTOA_RETURN_NOT_OK(helper_fills
                         ? helper.get()
                         : source_.FillArrivalsForDay(day, &day_arrivals_));
  buffered_day_ = day;
  return Status::OK();
}

Status ServiceHarness::FinishDayAhead() {
  // Arrivals are still pending only when the call ended on a day's last
  // window, so next_window_ starts their day.
  const Status taken = day_ahead_.arrivals.valid()
                           ? TakeArrivals(next_window_ / spd_)
                           : Status::OK();
  const Stopwatch wait;
  JoinDayAhead();
  if (day_ahead_.guide_window >= 0) {
    day_ahead_.waited_ms += static_cast<double>(wait.ElapsedNanos()) * 1e-6;
  }
  return taken;
}

Status ServiceHarness::StartDay(int64_t day) {
  FTOA_RETURN_NOT_OK(TakeArrivals(day));
  day_cursor_ = 0;
  if (day > 0) {
    prev_workers_ = day_workers_;
    prev_tasks_ = day_tasks_;
    have_prev_day_ = true;
    if (!options_.refresh_predictor.empty()) {
      realized_workers_.push_back(day_workers_);
      realized_tasks_.push_back(day_tasks_);
    }
  }
  std::fill(day_workers_.begin(), day_workers_.end(), 0);
  std::fill(day_tasks_.begin(), day_tasks_.end(), 0);
  if (!options_.refresh_predictor.empty()) {
    FTOA_RETURN_NOT_OK(RefitPredictors(day));
  }
  return Status::OK();
}

Status ServiceHarness::RefitPredictors(int64_t day) {
  // Rolling evaluation, exactly like a deployed platform: the dataset is
  // the generator's offline history followed by every completed stream day
  // (day_of_week continues the history's weekday sequence; weather repeats
  // with the looped trace), and the predictors are refitted on all of it.
  // The target day — the one PredictionFor asks about — is the dataset's
  // last, left all-zero: Predictor::Predict may only read strictly earlier
  // history anyway.
  const CityTraceGenerator& generator = source_.generator();
  const int history_days = generator.profile().history_days;
  const int num_cells = source_.DaySpacetime().num_areas();
  const int slots = static_cast<int>(spd_);
  const int completed = static_cast<int>(realized_workers_.size());
  const int target_day = history_days + static_cast<int>(day);

  DemandDataset data(target_day + 1, slots, num_cells);
  const DemandDataset base = generator.GenerateHistory();
  for (int d = 0; d < history_days; ++d) {
    data.set_day_of_week(d, base.day_of_week(d));
    for (int slot = 0; slot < slots; ++slot) {
      data.set_weather(d, slot, base.weather(d, slot));
      for (int cell = 0; cell < num_cells; ++cell) {
        data.set_workers(d, slot, cell, base.workers(d, slot, cell));
        data.set_tasks(d, slot, cell, base.tasks(d, slot, cell));
      }
    }
  }
  for (int d = 0; d < static_cast<int>(day); ++d) {
    const int at = history_days + d;
    data.set_day_of_week(at, at % 7);
    const int source_day = d % source_.loop_days();
    for (int slot = 0; slot < slots; ++slot) {
      data.set_weather(at, slot, generator.WeatherAt(source_day, slot));
      for (int cell = 0; cell < num_cells; ++cell) {
        // TypeId = slot * num_areas + cell — the realized per-type counts
        // flatten exactly like the dataset's (slot, cell) axis.
        const size_t type = static_cast<size_t>(slot) *
                                static_cast<size_t>(num_cells) +
                            static_cast<size_t>(cell);
        if (d < completed) {
          data.set_workers(
              at, slot, cell,
              realized_workers_[static_cast<size_t>(d)][type]);
          data.set_tasks(at, slot, cell,
                         realized_tasks_[static_cast<size_t>(d)][type]);
        }
      }
    }
  }
  data.set_day_of_week(target_day, target_day % 7);
  const int target_source_day = static_cast<int>(day) % source_.loop_days();
  for (int slot = 0; slot < slots; ++slot) {
    data.set_weather(target_day, slot,
                     generator.WeatherAt(target_source_day, slot));
  }

  FTOA_ASSIGN_OR_RETURN(worker_predictor_,
                        CreatePredictor(options_.refresh_predictor));
  FTOA_ASSIGN_OR_RETURN(task_predictor_,
                        CreatePredictor(options_.refresh_predictor));
  FTOA_RETURN_NOT_OK(
      worker_predictor_->Fit(data, target_day, DemandSide::kWorkers));
  FTOA_RETURN_NOT_OK(
      task_predictor_->Fit(data, target_day, DemandSide::kTasks));
  predictor_data_ = std::make_unique<DemandDataset>(std::move(data));
  predictor_target_day_ = target_day;
  return Status::OK();
}

void ServiceHarness::ExpireUpTo(int64_t window, WindowMetrics* metrics) {
  expired_up_to_ = window;
  calendar_.DrainUpTo(window, [&](int64_t stream_id) {
    const ObjectRecord* record = store_.Find(stream_id);
    if (record == nullptr) return;  // Freed at match time.
    --live_;
    ++totals_.evictions;
    ++metrics->evicted;
    // The safety invariant the property tests pin: a record freed here
    // is never live (its deadline has passed).
    if (record->Deadline() > static_cast<double>(window)) {
      ++totals_.evicted_live;
    }
    // The open segment's universe still references the record (an object
    // expiring mid-segment can legitimately match during the replay — it
    // was live at its arrival); free it at rotation.
    deferred_free_.push_back(stream_id);
  });
}

PredictionMatrix ServiceHarness::PredictionFor(int64_t window) const {
  const SpacetimeSpec spacetime = source_.DaySpacetime();
  PredictionMatrix prediction(spacetime);
  if (worker_predictor_ != nullptr) {
    // Learned predictor (satellite of ROADMAP serving item 3): per-slot
    // per-cell forecasts for the dataset's target day, clamped to
    // nonnegative integers (the guide network wants counts).
    const int num_cells = spacetime.num_areas();
    for (int slot = 0; slot < static_cast<int>(spd_); ++slot) {
      const std::vector<double> workers = worker_predictor_->Predict(
          *predictor_data_, predictor_target_day_, slot);
      const std::vector<double> tasks = task_predictor_->Predict(
          *predictor_data_, predictor_target_day_, slot);
      for (int cell = 0; cell < num_cells; ++cell) {
        const TypeId type = spacetime.TypeAt(slot, cell);
        prediction.set_workers_at(
            type, static_cast<int32_t>(std::max<int64_t>(
                      0, std::llround(workers[static_cast<size_t>(cell)]))));
        prediction.set_tasks_at(
            type, static_cast<int32_t>(std::max<int64_t>(
                      0, std::llround(tasks[static_cast<size_t>(cell)]))));
      }
    }
    return prediction;
  }
  if (have_prev_day_) {
    // Yesterday's realized admissions — the live platform's freshest
    // history.
    return CountsPrediction(prev_workers_, prev_tasks_);
  }
  // Bootstrap before any completed day: the generator's history for the
  // source day this stream day replays — the paper's offline prediction.
  const int source_day =
      static_cast<int>((window / spd_) % source_.loop_days());
  const std::vector<int> workers =
      source_.generator().SampleDayCounts(DemandSide::kWorkers, source_day);
  const std::vector<int> tasks =
      source_.generator().SampleDayCounts(DemandSide::kTasks, source_day);
  for (int type = 0; type < spacetime.num_types(); ++type) {
    prediction.set_workers_at(type, workers[static_cast<size_t>(type)]);
    prediction.set_tasks_at(type, tasks[static_cast<size_t>(type)]);
  }
  return prediction;
}

PredictionMatrix ServiceHarness::CountsPrediction(
    const std::vector<int32_t>& workers,
    const std::vector<int32_t>& tasks) const {
  PredictionMatrix prediction(source_.DaySpacetime());
  for (size_t type = 0; type < workers.size(); ++type) {
    prediction.set_workers_at(static_cast<TypeId>(type), workers[type]);
    prediction.set_tasks_at(static_cast<TypeId>(type), tasks[type]);
  }
  return prediction;
}

Status ServiceHarness::HandleRefresh(int64_t window) {
  if (!AlgorithmNeedsGuide(options_.algorithm)) return Status::OK();
  const bool due = (window % options_.refresh_period_windows) == 0;
  if (options_.background_refresh) {
    const GuideRefresher::PollResult poll = refresher_->Poll();
    if (poll == GuideRefresher::PollResult::kPublished) {
      pending_refresh_report_ = refresher_->last_cycle();
      if (segment_.open) {
        segment_.swaps.emplace_back(window, slot_.Get().guide);
      }
    }
    if (due && !refresher_->busy()) {
      refresher_->StartBackground(PredictionFor(window), window, &slot_);
    }
    return Status::OK();
  }
  if (!due) return Status::OK();
  if (day_ahead_.guide_window == window) {
    // The day-ahead job prepared this refresh. Only the part of the solve
    // the replay did not hide is waited for here: the refresh's cost on
    // the critical path.
    day_ahead_.guide_window = -1;
    const Stopwatch wait;
    day_ahead_.done.get();
    pending_refresh_wait_ms_ =
        day_ahead_.waited_ms +
        static_cast<double>(wait.ElapsedNanos()) * 1e-6;
  }
  const Result<GuideSlot::Snapshot> refreshed =
      refresher_->RefreshNow(PredictionFor(window), window, &slot_);
  // A failed cycle is the degradation ladder's input, not the harness's
  // failure: the stale slot (or greedy) carries the stream.
  if (refreshed.ok()) {
    pending_refresh_report_ = refresher_->last_cycle();
    if (segment_.open) {
      segment_.swaps.emplace_back(window, refreshed.value().guide);
    }
  }
  return Status::OK();
}

void ServiceHarness::StartSegment(int64_t window) {
  segment_ = Segment{};
  segment_.open = true;
  segment_.begin = window;
  segment_.day = window / spd_;
  segment_.end = std::min(window + options_.windows_per_segment,
                          (segment_.day + 1) * spd_);
  segment_.admitted.resize(static_cast<size_t>(segment_.end - window));
  segment_.start_guide = slot_.Get();

  const bool needs_guide = AlgorithmNeedsGuide(options_.algorithm);
  const bool no_guide = segment_.start_guide.guide == nullptr;
  const bool too_stale =
      options_.max_guide_age_windows > 0 && !no_guide &&
      window - segment_.start_guide.published_window >
          options_.max_guide_age_windows;
  segment_.degraded = needs_guide && (no_guide || too_stale);
  // The carryover lives in the persistent spine; compact it in place
  // instead of rescanning the store.
  CompactSpine(window, segment_.day);
}

bool ServiceHarness::SpineBefore(const SpineEntry& a, const SpineEntry& b) {
  if (a.rel_time != b.rel_time) return a.rel_time < b.rel_time;
  if (a.kind != b.kind) return a.kind == ObjectKind::kWorker;
  return a.stream_id < b.stream_id;
}

void ServiceHarness::CompactSpine(int64_t window, int64_t day) {
  // Equivalence with a store scan (pinned against
  // tests/oracles/reference_serve_loop): the spine holds exactly the
  // previous segment's universe members whose records survived unmatched
  // (ReplaySegment's fold), and every live unmatched record is in some
  // previous segment's universe (admitted objects enter a segment;
  // unmatched survivors chain through the carryover). Dropping the entries
  // expired by now therefore leaves the object set a scan of every
  // admitted object with a deadline filter would produce — in
  // O(carryover), never O(store).
  const double now = static_cast<double>(window);
  const double day_start = static_cast<double>(day) * source_.day_horizon();
  const bool retime = day != spine_day_;
  size_t kept = 0;
  for (const SpineEntry& entry : spine_) {
    // The fold keeps only entries whose record survived, and nothing is
    // freed between the fold and the next segment start.
    const ObjectRecord& record = *store_.Find(entry.stream_id);
    if (record.Deadline() <= now) continue;
    SpineEntry survivor = entry;
    if (retime) {
      // Recomputed from the record's absolute times — idempotent, so
      // surviving several day boundaries gives the same values a fresh
      // derivation from the record would.
      double rel_start = record.abs_start - day_start;
      double duration = record.duration;
      if (rel_start < 0.0) {
        duration = record.Deadline() - day_start;
        rel_start = 0.0;
      }
      if (duration <= 0.0) continue;
      survivor.rel_time = rel_start;
      survivor.duration = duration;
    }
    spine_[kept++] = survivor;
  }
  spine_.resize(kept);
  if (retime) {
    // Re-timing can reorder (previous-day survivors all collapse to
    // rel_time 0); restore the spine's sort invariant. O(c log c) on the
    // carryover only.
    std::sort(spine_.begin(), spine_.end(), SpineBefore);
    spine_day_ = day;
  }
}

void ServiceHarness::AdmitWindow(int64_t window) {
  WindowMetrics metrics;
  metrics.window = window;
  metrics.day = window / spd_;
  ExpireUpTo(window, &metrics);

  const double window_end = static_cast<double>(window) + 1.0;
  std::vector<StreamArrival> batch;
  while (day_cursor_ < day_arrivals_.size() &&
         day_arrivals_[day_cursor_].time < window_end) {
    batch.push_back(day_arrivals_[day_cursor_]);
    ++day_cursor_;
  }

  // Injected flash crowd: clone the window's batch up to factor * base,
  // cycling over the base arrivals (a crowd bursts where demand already
  // is, so clones keep their template's location and deadline).
  const size_t base = batch.size();
  const double factor = faults_.FlashCrowdFactor(window);
  if (factor > 1.0 && base > 0) {
    const size_t target = static_cast<size_t>(
        std::llround(static_cast<double>(base) * factor));
    for (size_t i = base; i < target; ++i) {
      batch.push_back(batch[i % base]);
      metrics.flash_clones++;
    }
    std::sort(batch.begin(), batch.end(), ArrivesBefore);
  }
  metrics.offered = static_cast<int64_t>(batch.size());

  // Admission control: the tightest cap wins; the overflow is shed
  // oldest-deadline-first (the objects closest to expiring buy the least
  // service anyway).
  int64_t allowed = static_cast<int64_t>(batch.size());
  const bool slo_tripped =
      options_.slo_p99_ms > 0.0 && last_known_p99_ms_ > options_.slo_p99_ms;
  if (options_.max_queue_depth > 0) {
    allowed = std::min(allowed, options_.max_queue_depth);
  }
  if (slo_tripped) {
    allowed = std::min(
        allowed, static_cast<int64_t>(std::floor(
                     static_cast<double>(batch.size()) *
                     (1.0 - options_.overload_shed_fraction))));
  }
  if (options_.max_live_objects > 0) {
    allowed = std::min(allowed,
                       std::max<int64_t>(0, options_.max_live_objects - live_));
  }

  std::vector<char> shed_flag(batch.size(), 0);
  const int64_t shed_count = static_cast<int64_t>(batch.size()) - allowed;
  if (shed_count > 0) {
    std::vector<size_t> order(batch.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&batch](size_t a, size_t b) {
      if (batch[a].Deadline() != batch[b].Deadline()) {
        return batch[a].Deadline() < batch[b].Deadline();
      }
      return a < b;
    });
    for (int64_t i = 0; i < shed_count; ++i) shed_flag[order[i]] = 1;
  }

  const SpacetimeSpec day_spacetime = source_.DaySpacetime();
  const double day_start =
      static_cast<double>(metrics.day) * source_.day_horizon();
  std::vector<int64_t>& admitted =
      segment_.admitted[static_cast<size_t>(window - segment_.begin)];
  for (size_t i = 0; i < batch.size(); ++i) {
    if (shed_flag[i]) {
      ++metrics.shed;
      continue;
    }
    const StreamArrival& arrival = batch[i];
    const int64_t stream_id = store_.Append(ObjectRecord{
        arrival.kind, arrival.location, arrival.time, arrival.duration});
    calendar_.Add(stream_id, arrival.Deadline());
    ++live_;
    admitted.push_back(stream_id);
    ++metrics.admitted;
    const TypeId type =
        day_spacetime.TypeOf(arrival.location, arrival.time - day_start);
    if (arrival.kind == ObjectKind::kWorker) {
      ++day_workers_[static_cast<size_t>(type)];
    } else {
      ++day_tasks_[static_cast<size_t>(type)];
    }
  }

  metrics.overloaded = slo_tripped || metrics.shed > 0;
  metrics.live_objects = live_;
  metrics.live_bytes = memory_tracker::LiveBytes();
  const GuideSlot::Snapshot snapshot = slot_.Get();
  metrics.guide_epoch = snapshot.epoch;
  metrics.guide_age_windows =
      snapshot.guide == nullptr ? -1 : window - snapshot.published_window;
  metrics.refresh_failures = refresher_->stats().failed_cycles;
  metrics.degraded_greedy = segment_.degraded;
  if (pending_refresh_report_.has_value()) {
    const GuideRefresher::CycleReport& report = *pending_refresh_report_;
    metrics.refresh_ms = report.solve_ms;
    metrics.refresh_unchanged = report.unchanged;
    metrics.refresh_warm = report.refresh.warm;
    metrics.refresh_components_total = report.refresh.components_total;
    metrics.refresh_components_reused = report.refresh.components_reused;
    (report.unchanged      ? totals_.unchanged_refreshes
     : report.refresh.warm ? totals_.warm_refreshes
                           : totals_.cold_refreshes)++;
    totals_.refresh_components_reused += report.refresh.components_reused;
    totals_.refresh_components_solved += report.refresh.components_solved;
    totals_.refresh_ms += report.solve_ms;
    if (report.prepared) ++totals_.prepared_refreshes;
    pending_refresh_report_.reset();
  }
  metrics.refresh_wait_ms = pending_refresh_wait_ms_;
  totals_.refresh_wait_ms += pending_refresh_wait_ms_;
  pending_refresh_wait_ms_ = 0.0;

  totals_.windows++;
  totals_.offered += metrics.offered;
  totals_.admitted += metrics.admitted;
  totals_.shed += metrics.shed;
  totals_.store_peak = std::max(totals_.store_peak, store_.size());
  windows_.push_back(metrics);
}

Status ServiceHarness::ReplaySegment() {
  Segment segment = std::move(segment_);
  segment_ = Segment{};
  ++totals_.segments;
  const double day_start =
      static_cast<double>(segment.day) * source_.day_horizon();

  // The segment universe: the carryover plus this segment's admissions,
  // all on the day-relative axis the guide's spacetime discretizes, in
  // session arrival order — nondecreasing time, workers before tasks at
  // ties, lower ids first. Local ids are assigned in this order, so the id
  // tie-break and the stream-id tie-break agree.
  // This segment's admissions are already in arrival order by
  // construction: each window's batch is fed in (time, kind, source) order
  // and stream ids are handed out along it, windows never interleave times.
  size_t admitted = 0;
  for (const std::vector<int64_t>& ids : segment.admitted) {
    admitted += ids.size();
  }
  std::vector<SpineEntry> fresh;
  fresh.reserve(admitted);
  for (size_t offset = 0; offset < segment.admitted.size(); ++offset) {
    for (const int64_t stream_id : segment.admitted[offset]) {
      const ObjectRecord& record = *store_.Find(stream_id);
      fresh.push_back(SpineEntry{
          stream_id, record.kind, record.abs_start - day_start,
          record.duration, record.location,
          segment.begin + static_cast<int64_t>(offset)});
    }
  }
  // The spine is the compacted, sorted carryover (CompactSpine ran at
  // StartSegment); stamp its latency-attribution window and merge with the
  // sorted admissions — O(carryover + new), never a full re-sort.
  for (SpineEntry& entry : spine_) entry.window = segment.begin;
  std::vector<SpineEntry> objects(spine_.size() + fresh.size());
  std::merge(spine_.begin(), spine_.end(), fresh.begin(), fresh.end(),
             objects.begin(), SpineBefore);
  // Free the admissions copy now rather than at return: the replay below
  // is the day's peak, and the day-ahead job allocates beside it.
  std::vector<SpineEntry>().swap(fresh);

  const size_t num_workers = static_cast<size_t>(
      std::count_if(objects.begin(), objects.end(), [](const SpineEntry& o) {
        return o.kind == ObjectKind::kWorker;
      }));
  std::vector<Worker> workers;
  std::vector<Task> tasks;
  std::vector<int64_t> worker_stream, task_stream;
  workers.reserve(num_workers);
  worker_stream.reserve(num_workers);
  tasks.reserve(objects.size() - num_workers);
  task_stream.reserve(objects.size() - num_workers);
  std::vector<int32_t> local_id(objects.size(), -1);
  for (size_t i = 0; i < objects.size(); ++i) {
    const SpineEntry& object = objects[i];
    if (object.kind == ObjectKind::kWorker) {
      local_id[i] = static_cast<int32_t>(workers.size());
      workers.push_back(Worker{-1, object.location, object.rel_time,
                               object.duration});
      worker_stream.push_back(object.stream_id);
    } else {
      local_id[i] = static_cast<int32_t>(tasks.size());
      tasks.push_back(
          Task{-1, object.location, object.rel_time, object.duration});
      task_stream.push_back(object.stream_id);
    }
  }
  const Instance instance(source_.DaySpacetime(),
                          source_.generator().profile().velocity,
                          std::move(workers), std::move(tasks));

  // Ladder rung for this segment, fixed at its start: fresh/stale guide,
  // or guide-free greedy.
  AlgorithmDeps deps;
  deps.guide = segment.start_guide.guide;
  const std::string name =
      segment.degraded ? "simple-greedy" : options_.algorithm;
  FTOA_ASSIGN_OR_RETURN(std::unique_ptr<OnlineAlgorithm> algorithm,
                        CreateAlgorithm(name, deps));
  ShardedOptions sharded;
  sharded.num_shards = options_.num_shards;
  sharded.num_threads = options_.shard_threads;
  sharded.reconcile = options_.reconcile;
  // Analytical isolation: shard drains share the harness pool with the
  // refresher's bounded slice instead of a dispatcher-owned pool.
  sharded.external_pool = shared_pool_.get();
  ShardedDispatcher dispatcher(algorithm.get(), sharded);
  std::unique_ptr<ShardedSession> session = dispatcher.StartSession(instance);
  session->set_collect_dispatches(false);

  // Replay with AdvanceTo at every window boundary; mid-segment guide
  // publishes hot-swap at their boundary; injected handoff drops skip
  // whole (window, lane) batches; latency is timed for one fed event in
  // kLatencySamplePeriod by its ordinal in the window.
  size_t cursor = 0;
  size_t swap_cursor = 0;
  std::vector<char> lane_dropped(static_cast<size_t>(options_.num_shards), 0);
  const bool lane_faults = faults_.HasLaneFaults();
  std::vector<std::vector<int64_t>> latency_ns(
      static_cast<size_t>(segment.end - segment.begin));
  const auto feed_until = [&](double rel_bound, int64_t window) {
    WindowMetrics& metrics = windows_[static_cast<size_t>(window)];
    std::vector<int64_t>& sample =
        latency_ns[static_cast<size_t>(window - segment.begin)];
    for (; cursor < objects.size() && objects[cursor].rel_time < rel_bound;
         ++cursor) {
      const SpineEntry& object = objects[cursor];
      const int32_t id = local_id[cursor];
      // The fault lane is the shard that would really receive the event —
      // the session router's assignment over the session-local id — so an
      // injected drop-batch fault hits one actual shard's handoff, not a
      // synthetic stream-id stripe. Only lane faults read it.
      const int lane =
          lane_faults ? session->router().Route(object.kind, id,
                                                object.location)
                      : 0;
      if (lane_dropped[static_cast<size_t>(lane)]) {
        ++metrics.dropped_arrivals;
        ++totals_.dropped_arrivals;
        continue;
      }
      const auto decide = [&] {
        if (object.kind == ObjectKind::kWorker) {
          session->OnWorker(id, object.rel_time);
        } else {
          session->OnTask(id, object.rel_time);
        }
      };
      if ((metrics.decisions++ % kLatencySamplePeriod) != 0) {
        decide();
        continue;
      }
      const Stopwatch clock;
      decide();
      sample.push_back(clock.ElapsedNanos() +
                       static_cast<int64_t>(
                           faults_.SlowShardStallMs(window, lane) * 1e6));
    }
  };

  for (int64_t window = segment.begin; window < segment.end; ++window) {
    const double rel_start = static_cast<double>(window % spd_);
    if (window == segment.begin) feed_until(rel_start, window);
    session->AdvanceTo(rel_start);
    while (swap_cursor < segment.swaps.size() &&
           segment.swaps[swap_cursor].first <= window) {
      session->SwapGuide(segment.swaps[swap_cursor].second);
      ++swap_cursor;
    }
    for (int lane = 0; lane < options_.num_shards; ++lane) {
      lane_dropped[static_cast<size_t>(lane)] =
          faults_.ShouldDropHandoffBatch(window, lane) ? 1 : 0;
    }
    feed_until(rel_start + 1.0, window);
  }

  FTOA_ASSIGN_OR_RETURN(ShardedRunResult result, session->Finish());
  totals_.guide_swaps += result.metrics.guide_swaps;

  // Fold the segment's outcome back: committed pairs to stream ids, the
  // matched records freed (with live accounting against the expiry
  // horizon), and the per-window latency report.
  const int64_t rotation_window = segment.end - 1;
  for (const MatchedPair& pair : result.assignment.pairs()) {
    const int64_t worker_id = worker_stream[static_cast<size_t>(pair.worker)];
    const int64_t task_id = task_stream[static_cast<size_t>(pair.task)];
    matched_pairs_.emplace_back(worker_id, task_id);
    for (const int64_t stream_id : {worker_id, task_id}) {
      const ObjectRecord* record = store_.Find(stream_id);
      if (record == nullptr) continue;
      if (record->Deadline() > static_cast<double>(expired_up_to_)) --live_;
      store_.Free(stream_id);
    }
  }
  totals_.matched += static_cast<int64_t>(result.assignment.size());
  totals_.reconciled += result.reconcile.recovered_pairs;
  windows_[static_cast<size_t>(rotation_window)].matched +=
      static_cast<int64_t>(result.assignment.size());
  windows_[static_cast<size_t>(rotation_window)].reconciled +=
      result.reconcile.recovered_pairs;
  {
    // Retrieval instrumentation of the rotated segment (merged across its
    // shard sessions by the dispatcher's trace fold).
    const RetrievalStats& retrieval = result.trace.retrieval;
    WindowMetrics& rotated = windows_[static_cast<size_t>(rotation_window)];
    rotated.retrieval_queries += retrieval.queries;
    rotated.candidates_examined += retrieval.candidates_examined;
    rotated.cells_visited_p50 = retrieval.CellsVisitedPercentile(0.50);
    rotated.cells_visited_p99 = retrieval.CellsVisitedPercentile(0.99);
  }

  for (int64_t window = segment.begin; window < segment.end; ++window) {
    WindowMetrics& metrics = windows_[static_cast<size_t>(window)];
    metrics.FillLatencies(
        latency_ns[static_cast<size_t>(window - segment.begin)]);
    last_known_p99_ms_ = metrics.p99_ms;
  }

  // Rotation is the eviction point: free the records that expired during
  // the segment (those the fold matched are already gone).
  for (const int64_t stream_id : deferred_free_) store_.Free(stream_id);
  deferred_free_.clear();

  // The next spine: this segment's universe members whose records survived
  // (neither matched nor expired), in the order they already hold
  // (filtering a sorted list preserves its order). O(carryover + new) —
  // the store is never scanned.
  spine_.clear();
  for (const SpineEntry& object : objects) {
    if (store_.Find(object.stream_id) != nullptr) spine_.push_back(object);
  }
  spine_day_ = segment.day;
  return Status::OK();
}

Status ServiceHarness::RunWindows(int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    const int64_t window = next_window_;
    ++next_window_;
    if (window % spd_ == 0) FTOA_RETURN_NOT_OK(StartDay(window / spd_));
    FTOA_RETURN_NOT_OK(HandleRefresh(window));
    if (!segment_.open) StartSegment(window);
    AdmitWindow(window);
    // With one-window segments the day's last replay is one window long,
    // too short to hide the job behind, and joining the job at the end of
    // the call would only move its work there: such days end serially.
    if ((window + 1) % spd_ == 0 && options_.windows_per_segment > 1) {
      StartDayAhead(window / spd_ + 1);
    }
    if (window + 1 == segment_.end) FTOA_RETURN_NOT_OK(ReplaySegment());
  }
  if (segment_.open) {
    // Rotate the partial segment so every emitted window reports complete
    // metrics (the next RunWindows starts a fresh segment).
    segment_.end = next_window_;
    segment_.admitted.resize(static_cast<size_t>(segment_.end -
                                                 segment_.begin));
    FTOA_RETURN_NOT_OK(ReplaySegment());
  }
  // The helper's job ends with the call that started it, so a call's time
  // is the time of all the work it caused.
  return FinishDayAhead();
}

}  // namespace ftoa
