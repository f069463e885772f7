#include "serve/guide_refresher.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "util/stopwatch.h"

namespace ftoa {

GuideRefresher::GuideRefresher(double velocity, GuideOptions guide_options,
                               Options options, FaultInjector* faults)
    : velocity_(velocity),
      guide_options_(guide_options),
      options_(options),
      faults_(faults),
      inline_generator_(velocity, guide_options),
      background_generator_(velocity, guide_options) {
  options_.max_attempts = std::max(1, options_.max_attempts);
}

GuideRefresher::~GuideRefresher() {
  // The pool (or slice) destructor drains its queue, so a late background
  // solve runs to completion (its result is discarded with the future).
}

Result<OfflineGuide> GuideRefresher::GenerateWithRetries(
    const PredictionMatrix& prediction, bool injected_fail,
    GuideGenerator* generator, const CancellationToken* token,
    int64_t* attempts) {
  Status last = Status::Internal("guide refresh: no attempt ran");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (token != nullptr && token->IsCancelled()) {
      return Status::DeadlineExceeded(
          "guide refresh cancelled between attempts");
    }
    if (attempt > 0 && options_.backoff_ms > 0.0) {
      const double factor = static_cast<double>(1 << (attempt - 1));
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          options_.backoff_ms * factor));
    }
    ++*attempts;
    if (injected_fail) {
      // An injected fault fails the whole cycle: every attempt reports the
      // same injected error, so the degradation ladder engages even with
      // retries on.
      last = Status::Internal("injected guide-solve failure");
      continue;
    }
    Result<OfflineGuide> guide = generator->Generate(prediction);
    if (guide.ok()) return guide;
    last = guide.status();
  }
  return last;
}

GuideRefresher::Prepared GuideRefresher::SolveInline(
    PredictionMatrix prediction, int64_t window, bool injected_fail) {
  const Stopwatch stopwatch;
  int64_t attempts = 0;
  Result<OfflineGuide> guide = GenerateWithRetries(
      prediction, injected_fail, &inline_generator_, nullptr, &attempts);
  const CycleReport report{
      static_cast<double>(stopwatch.ElapsedNanos()) * 1e-6,
      inline_generator_.last_refresh_stats(), /*unchanged=*/false};
  return Prepared{window, std::move(prediction), std::move(guide), attempts,
                  report};
}

void GuideRefresher::Prepare(PredictionMatrix prediction, int64_t window) {
  prepared_.reset();
  if (last_inline_solve_.guide != nullptr &&
      last_inline_solve_.prediction == prediction) {
    return;  // RefreshNow republishes the memo without solving.
  }
  prepared_ = SolveInline(std::move(prediction), window,
                          /*injected_fail=*/false);
  prepared_->report.prepared = true;
}

Result<GuideSlot::Snapshot> GuideRefresher::RefreshNow(
    const PredictionMatrix& prediction, int64_t window, GuideSlot* slot) {
  const bool injected_fail =
      faults_ != nullptr && faults_->GuideRefreshShouldFail(window);
  // A prepared result serves only the cycle it was solved for; any other
  // cycle (or a fired fault) drops it.
  std::optional<Prepared> prepared = std::move(prepared_);
  prepared_.reset();
  const Stopwatch stopwatch;
  if (!injected_fail && last_inline_solve_.guide != nullptr &&
      last_inline_solve_.prediction == prediction) {
    // Solving again would rebuild this exact guide. Publishing it still
    // opens a new epoch, so the harness hot-swaps it like any other.
    ++stats_.attempts;
    ++stats_.publishes;
    last_cycle_ = CycleReport{
        static_cast<double>(stopwatch.ElapsedNanos()) * 1e-6,
        GuideRefreshStats{}, /*unchanged=*/true};
    return slot->Publish(last_inline_solve_.guide, window);
  }
  const bool adopt = !injected_fail && prepared.has_value() &&
                     prepared->window == window &&
                     prepared->prediction == prediction;
  Prepared cycle = adopt ? std::move(*prepared)
                         : SolveInline(prediction, window, injected_fail);
  stats_.attempts += cycle.attempts;
  if (!cycle.guide.ok()) {
    ++stats_.failed_cycles;
    return cycle.guide.status();
  }
  last_cycle_ = cycle.report;
  last_inline_solve_ = LastSolve{
      std::move(cycle.prediction),
      std::make_shared<const OfflineGuide>(std::move(cycle.guide).value())};
  ++stats_.publishes;
  return slot->Publish(last_inline_solve_.guide, window);
}

bool GuideRefresher::StartBackground(PredictionMatrix prediction,
                                     int64_t window, GuideSlot* slot) {
  if (inflight_.has_value()) return false;
  // Fault decisions are taken here, on the caller's thread — the injector
  // is not thread-safe and the background lambda must not touch it.
  const bool injected_fail =
      faults_ != nullptr && faults_->GuideRefreshShouldFail(window);
  auto attempts = std::make_shared<std::atomic<int64_t>>(0);
  auto report = std::make_shared<CycleReport>();
  auto cycle = [this, prediction = std::move(prediction), injected_fail,
                attempts,
                report](const CancellationToken& token)
      -> Result<OfflineGuide> {
    const Stopwatch stopwatch;
    int64_t local = 0;
    Result<OfflineGuide> guide = GenerateWithRetries(
        prediction, injected_fail, &background_generator_, &token, &local);
    attempts->store(local, std::memory_order_relaxed);
    if (guide.ok()) {
      report->solve_ms =
          static_cast<double>(stopwatch.ElapsedNanos()) * 1e-6;
      report->refresh = background_generator_.last_refresh_stats();
    }
    return guide;
  };
  const auto deadline = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double, std::milli>(options_.timeout_ms));
  DeadlineTask<Result<OfflineGuide>> task;
  if (options_.shared_pool != nullptr) {
    // Analytical isolation: run on a bounded slice of the shared pool so
    // the solve competes with shard actors for at most slice_tokens
    // workers (see PoolSlice).
    if (slice_ == nullptr) {
      slice_ = std::make_unique<PoolSlice>(options_.shared_pool,
                                           options_.slice_tokens);
    }
    task = slice_->SubmitWithDeadline(std::move(cycle), deadline);
  } else {
    if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(1);
    task = pool_->SubmitWithDeadline(std::move(cycle), deadline);
  }
  inflight_ = InFlight{std::move(task), window, slot, std::move(attempts),
                       std::move(report)};
  return true;
}

GuideRefresher::PollResult GuideRefresher::Poll() {
  if (!inflight_.has_value()) return PollResult::kIdle;
  InFlight& inflight = *inflight_;
  if (!inflight.task.Poll()) {
    // Not finished. Poll() above has already requested cancellation if the
    // deadline passed; report the miss and free the refresher — the late
    // task keeps running on the pool and its result dies with the
    // discarded future (it is a Result, so no exception can be lost).
    if (inflight.task.token().IsCancelled()) {
      ++stats_.timeouts;
      ++stats_.failed_cycles;
      inflight_.reset();
      return PollResult::kFailed;
    }
    return PollResult::kRunning;
  }

  // Finished: harvest. Await does not block on a ready future; a result
  // that arrived past the deadline comes back as DeadlineExceeded and is
  // discarded, never published out of order.
  Result<Result<OfflineGuide>> outcome = inflight.task.Await();
  const int64_t window = inflight.window;
  GuideSlot* slot = inflight.slot;
  stats_.attempts += inflight.attempts->load(std::memory_order_relaxed);
  // Safe to read: the future was observed ready above, which
  // synchronizes-with the lambda's writes to the report cell.
  const CycleReport harvested = *inflight.report;
  inflight_.reset();

  if (!outcome.ok()) {
    ++stats_.failed_cycles;
    if (outcome.status().IsDeadlineExceeded()) ++stats_.timeouts;
    return PollResult::kFailed;
  }
  Result<OfflineGuide> guide = std::move(outcome).value();
  if (!guide.ok()) {
    ++stats_.failed_cycles;
    return PollResult::kFailed;
  }
  ++stats_.publishes;
  last_cycle_ = harvested;
  slot->Publish(
      std::make_shared<const OfflineGuide>(std::move(guide).value()), window);
  return PollResult::kPublished;
}

}  // namespace ftoa
