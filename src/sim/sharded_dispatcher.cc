#include "sim/sharded_dispatcher.h"

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>

#include "util/stopwatch.h"

namespace ftoa {

namespace {

/// Every Nth decision per shard is individually timed (systematic sampling
/// by per-shard decision ordinal — deterministic, thread-count
/// independent); RunMetrics::decisions stays exact and busy_seconds is
/// extrapolated from the sample. Timing every decision would cost two
/// clock reads per ~100ns decision on the serving path.
constexpr int64_t kLatencySamplePeriod = 8;

}  // namespace

// ----------------------------------------------------------------- session --

ShardedSession::ShardedSession(const Instance& instance,
                               OnlineAlgorithm* algorithm,
                               std::unique_ptr<ShardRouter> router,
                               ThreadPool* pool,
                               const ShardedOptions& options)
    : instance_(&instance),
      algorithm_(algorithm),
      router_(std::move(router)),
      pool_(pool),
      handoff_batch_(std::max(1, options.handoff_batch)),
      reconcile_(options.reconcile) {
  shards_.reserve(static_cast<size_t>(router_->num_shards()));
  for (int i = 0; i < router_->num_shards(); ++i) {
    auto shard = std::make_unique<Shard>();
    shard->session = algorithm->StartSession(instance);
    if (pool_ != nullptr) {
      shard->staging.reserve(static_cast<size_t>(handoff_batch_));
    }
    shards_.push_back(std::move(shard));
  }
}

ShardedSession::~ShardedSession() {
  // An abandoned session may still have drain tasks referencing our
  // shards; wait them out before the sessions are destroyed. (Staged but
  // never flushed events die with the abandoned session.)
  Quiesce();
}

void ShardedSession::set_collect_dispatches(bool collect) {
  for (auto& shard : shards_) shard->session->set_collect_dispatches(collect);
}

void ShardedSession::OnWorker(WorkerId worker, double time) {
  Route(ObjectKind::kWorker, worker, time);
}

void ShardedSession::OnTask(TaskId task, double time) {
  Route(ObjectKind::kTask, task, time);
}

void ShardedSession::Route(ObjectKind kind, int32_t id, double time) {
  const Point location = kind == ObjectKind::kWorker
                             ? instance_->worker(id).location
                             : instance_->task(id).location;
  const int target = router_->Route(kind, id, location);
  const Op::Kind op_kind =
      kind == ObjectKind::kWorker ? Op::Kind::kWorker : Op::Kind::kTask;
  Stage(*shards_[static_cast<size_t>(target)], Op{op_kind, id, time, {}});
}

void ShardedSession::AdvanceTo(double time) {
  // A declared time boundary: stage the advance behind each shard's
  // already-staged events (order preserved) and release every batch.
  for (auto& shard : shards_) {
    Stage(*shard, Op{Op::Kind::kAdvance, -1, time, {}});
    FlushStaging(*shard);
  }
}

void ShardedSession::SwapGuide(std::shared_ptr<const OfflineGuide> guide) {
  // Broadcast like AdvanceTo: the swap is ordered behind each shard's
  // staged events and the batches are released, so every shard adopts the
  // guide at the same point of its event order.
  for (auto& shard : shards_) {
    Op op;
    op.kind = Op::Kind::kSwapGuide;
    op.guide = guide;
    Stage(*shard, std::move(op));
    FlushStaging(*shard);
  }
}

void ShardedSession::Flush() {
  for (auto& shard : shards_) {
    Stage(*shard, Op{Op::Kind::kFlush, -1, 0.0, {}});
    FlushStaging(*shard);
  }
  Quiesce();
}

void ShardedSession::Stage(Shard& shard, Op op) {
  if (pool_ == nullptr) {
    Apply(shard, op);
    return;
  }
  shard.staging.push_back(op);
  if (static_cast<int>(shard.staging.size()) >= handoff_batch_) {
    FlushStaging(shard);
  }
}

void ShardedSession::FlushStaging(Shard& shard) {
  if (pool_ == nullptr || shard.staging.empty()) return;
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.pending.empty()) {
      // Double-buffer swap: the drained-out pending vector becomes the
      // next staging buffer, so the two ping-pong with no copying.
      shard.pending.swap(shard.staging);
    } else {
      shard.pending.insert(shard.pending.end(), shard.staging.begin(),
                           shard.staging.end());
      shard.staging.clear();
    }
    if (!shard.draining) {
      shard.draining = true;
      schedule = true;
    }
  }
  if (schedule) {
    {
      std::lock_guard<std::mutex> lock(quiesce_mutex_);
      ++live_drains_;
    }
    pool_->Submit([this, &shard] { Drain(shard); });
  }
}

void ShardedSession::Apply(Shard& shard, const Op& op) {
  switch (op.kind) {
    case Op::Kind::kWorker:
    case Op::Kind::kTask: {
      // Systematic latency sampling by per-shard decision ordinal: the
      // sampled set depends only on the shard's event order, never on
      // threads or batching.
      const bool sampled = (shard.decisions++ % kLatencySamplePeriod) == 0;
      if (sampled) {
        Stopwatch clock;
        if (op.kind == Op::Kind::kWorker) {
          shard.session->OnWorker(op.id, op.time);
        } else {
          shard.session->OnTask(op.id, op.time);
        }
        shard.latency_ns.push_back(clock.ElapsedNanos());
      } else if (op.kind == Op::Kind::kWorker) {
        shard.session->OnWorker(op.id, op.time);
      } else {
        shard.session->OnTask(op.id, op.time);
      }
      break;
    }
    case Op::Kind::kAdvance:
      shard.session->AdvanceTo(op.time);
      break;
    case Op::Kind::kFlush:
      shard.session->Flush();
      break;
    case Op::Kind::kSwapGuide:
      if (shard.session->SwapGuide(op.guide)) ++shard.guide_swaps;
      break;
  }
}

void ShardedSession::Drain(Shard& shard) {
  // Actor loop: at most one Drain is live per shard (the `draining` flag),
  // so session calls for a shard are serialized in arrival order while
  // distinct shards progress concurrently.
  try {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        if (shard.pending.empty()) {
          shard.draining = false;
          break;
        }
        shard.scratch.swap(shard.pending);
      }
      for (const Op& op : shard.scratch) Apply(shard, op);
      shard.scratch.clear();
    }
  } catch (...) {
    // The pool's future (where packaged_task would resurface this) is
    // discarded by FlushStaging, so capture the failure for Finish() and
    // keep the live-drain accounting exact — leaking either would deadlock
    // Quiesce instead of failing loudly. The shard is dead from here on:
    // drop its queued and half-applied ops so a later drain (e.g. the
    // Flush broadcast) cannot replay already-applied events.
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.scratch.clear();
      shard.pending.clear();
      shard.draining = false;
    }
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
    if (failure_ == nullptr) failure_ = std::current_exception();
  }
  {
    // Notify under the lock: Quiesce() may be the destructor, and an
    // unlocked notify races the condition variable's destruction once the
    // waiter observes live_drains_ == 0 and returns.
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
    --live_drains_;
    quiesce_cv_.notify_all();
  }
}

void ShardedSession::Quiesce() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(quiesce_mutex_);
  quiesce_cv_.wait(lock, [this] { return live_drains_ == 0; });
}

Result<ShardedRunResult> ShardedSession::Finish() {
  if (finished_) {
    return Status::FailedPrecondition(
        "ShardedSession::Finish called twice");
  }
  Flush();  // Parallel deferred work (batch tails, OPT solves) runs here.
  finished_ = true;
  std::exception_ptr failure;
  {
    std::lock_guard<std::mutex> lock(quiesce_mutex_);
    failure = failure_;
  }
  if (failure != nullptr) {
    try {
      std::rethrow_exception(failure);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("shard session failed: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("shard session failed: unknown exception");
    }
  }

  ShardedRunResult out;
  out.assignment =
      Assignment(instance_->num_workers(), instance_->num_tasks());
  out.shard_metrics.reserve(shards_.size());
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    SessionResult result = shard.session->Finish();
    for (const MatchedPair& pair : result.assignment.pairs()) {
      // A duplicate across shards means the router/session contract broke;
      // Assignment::Add reports it as FailedPrecondition.
      FTOA_RETURN_NOT_OK(
          out.assignment.Add(pair.worker, pair.task, pair.time));
    }
    RunMetrics metrics;
    metrics.algorithm = algorithm_->name();
    metrics.matching_size = static_cast<int64_t>(result.assignment.size());
    metrics.dispatched_workers =
        static_cast<int64_t>(result.trace.dispatches.size());
    metrics.ignored_objects =
        result.trace.ignored_workers + result.trace.ignored_tasks;
    FillDecisionLatencies(shard.latency_ns, &metrics);
    // The latency trace is a 1-in-N systematic sample: the decision count
    // stays exact and the busy time extrapolates from the sampled share.
    if (!shard.latency_ns.empty()) {
      metrics.busy_seconds *= static_cast<double>(shard.decisions) /
                              static_cast<double>(shard.latency_ns.size());
    }
    metrics.decisions = shard.decisions;
    metrics.guide_swaps = shard.guide_swaps;
    // A shard has no wall clock of its own; its busy time is the best
    // per-shard estimate, and the max-merge below yields the critical-path
    // bound callers may overwrite with a measured wall clock.
    metrics.elapsed_seconds = metrics.busy_seconds;
    out.shard_metrics.push_back(std::move(metrics));
    out.trace.Absorb(std::move(result.trace));
  }
  out.metrics = MergeShardRunMetrics(out.shard_metrics);

  if (reconcile_) {
    ReconcileOptions reconcile_options;
    reconcile_options.policy = algorithm_->feasibility_policy();
    reconcile_options.guide = algorithm_->guide();
    // Flush() quiesced every drain, so the shard pool is idle: lend it to
    // candidate discovery (null in inline mode).
    reconcile_options.pool = pool_;
    FTOA_ASSIGN_OR_RETURN(
        out.reconcile,
        ReconcileShardBoundary(*instance_, *router_, reconcile_options,
                               &out.assignment));
    out.metrics.matching_size += out.reconcile.recovered_pairs;
    out.metrics.reconciled_pairs = out.reconcile.recovered_pairs;
    // The reconciler's candidate scans always run on the engine; fold them
    // into the merged trace so the serving stats see the whole picture.
    out.trace.retrieval.Absorb(out.reconcile.retrieval);
  }
  return out;
}

// -------------------------------------------------------------- dispatcher --

ShardedDispatcher::ShardedDispatcher(OnlineAlgorithm* algorithm,
                                     const ShardedOptions& options)
    : options_(options), algorithm_(algorithm) {
  options_.num_shards = std::max(1, options_.num_shards);
  options_.num_threads =
      ResolveNumThreads(options_.num_threads, options_.num_shards);
  options_.handoff_batch = std::max(1, options_.handoff_batch);
  if (options_.num_threads > 1) {
    if (options_.external_pool != nullptr) {
      active_pool_ = options_.external_pool;
    } else {
      pool_ = std::make_unique<ThreadPool>(options_.num_threads);
      active_pool_ = pool_.get();
    }
  }
}

int ShardedDispatcher::ResolveNumThreads(int requested, int num_shards) {
  if (requested <= 0) {
    // Auto: one thread per shard up to the core count — more actor
    // threads than cores is pure scheduling overhead, so a single-core
    // host degrades to the inline path.
    requested = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::clamp(requested, 1, std::max(1, num_shards));
}

Result<std::unique_ptr<ShardedDispatcher>> ShardedDispatcher::Create(
    const ShardedOptions& options, const AlgorithmDeps& deps) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument(
        "ShardedOptions::num_shards must be >= 1");
  }
  FTOA_ASSIGN_OR_RETURN(std::unique_ptr<OnlineAlgorithm> algorithm,
                        CreateAlgorithm(options.algorithm, deps));
  auto dispatcher = std::unique_ptr<ShardedDispatcher>(
      new ShardedDispatcher(algorithm.get(), options));
  dispatcher->owned_ = std::move(algorithm);
  return dispatcher;
}

std::unique_ptr<ShardedSession> ShardedDispatcher::StartSession(
    const Instance& instance) {
  return std::unique_ptr<ShardedSession>(new ShardedSession(
      instance, algorithm_,
      MakeShardRouter(options_.router, instance, options_.num_shards),
      active_pool_, options_));
}

Result<ShardedRunResult> ShardedDispatcher::Run(const Instance& instance,
                                                bool collect_dispatches) {
  const std::vector<ArrivalEvent> events = BuildArrivalStream(instance);
  Stopwatch stopwatch;
  const std::unique_ptr<ShardedSession> session = StartSession(instance);
  session->set_collect_dispatches(collect_dispatches);
  for (const ArrivalEvent& event : events) {
    if (event.kind == ObjectKind::kWorker) {
      session->OnWorker(event.index, event.time);
    } else {
      session->OnTask(event.index, event.time);
    }
  }
  FTOA_ASSIGN_OR_RETURN(ShardedRunResult result, session->Finish());
  result.metrics.SetWallClock(stopwatch.ElapsedSeconds());
  return result;
}

}  // namespace ftoa
