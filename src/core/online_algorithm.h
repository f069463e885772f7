// The common interface of all online task-assignment algorithms compared in
// the paper's evaluation (SimpleGreedy, GR, TGOA, POLAR, POLAR-OP) plus the
// offline OPT reference.
//
// The paper's algorithms are *online*: they decide per arrival. The API is
// therefore built around a streaming session model. StartSession() opens an
// AssignmentSession over an instance's object universe; the caller feeds
// arrivals one by one (OnWorker / OnTask), optionally advances time for the
// batched baselines (AdvanceTo / Flush), and Finish() yields the Assignment
// together with the RunTrace of decisions. The classic whole-instance
// Run() remains as a non-virtual driver that replays the instance's arrival
// stream through one session — so batch replay and live streaming are
// bit-identical by construction.

#ifndef FTOA_CORE_ONLINE_ALGORITHM_H_
#define FTOA_CORE_ONLINE_ALGORITHM_H_

#include <memory>
#include <string>
#include <utility>

#include "model/assignment.h"
#include "model/feasibility.h"
#include "model/instance.h"
#include "retrieval/stats.h"
#include "spatial/point.h"

namespace ftoa {

class OfflineGuide;

/// A "go to this area" instruction issued to an idle worker (Algorithm 2/3
/// line "dispatch o to go to the area of r").
struct DispatchRecord {
  WorkerId worker = -1;
  Point target;        ///< Representative location of the target area.
  double time = 0.0;   ///< When the instruction was issued (= Sw).
};

/// Side-channel of algorithm decisions beyond the assignment.
struct RunTrace {
  std::vector<DispatchRecord> dispatches;

  /// Objects dropped because no guide node of their type existed
  /// (under-prediction; "the object is ignored", Section 5.1).
  int64_t ignored_workers = 0;
  int64_t ignored_tasks = 0;

  /// Augmenting-path searches run by the incremental matcher of the
  /// batched baselines (TGOA, GR).
  int64_t matcher_augment_searches = 0;

  /// Candidate-retrieval instrumentation, populated by sessions running
  /// with RetrievalMode::kEngine (their cursors write straight into this
  /// sink). All-zero for the reference scan paths.
  RetrievalStats retrieval;

  /// Accumulates `other` into this trace (dispatches appended, counters
  /// added) — the aggregation Run() applies to a caller-supplied trace.
  void Absorb(RunTrace&& other);
};

/// What a finished session produced.
struct SessionResult {
  Assignment assignment;
  RunTrace trace;
};

/// One live streaming run of an algorithm over a fixed object universe.
///
/// Usage contract:
///  - Arrivals are fed in nondecreasing time order; at equal times workers
///    precede tasks and lower ids precede higher ones (the deterministic
///    order of BuildArrivalStream). Each object is fed at most once, at its
///    start time.
///  - AdvanceTo(t) promises that no arrival earlier than t will follow; the
///    batched baselines use it to close windows whose boundary has passed.
///    It is optional — feeding an arrival implies AdvanceTo(its time).
///  - Flush() forces all deferred work (e.g. the remaining batch windows)
///    as if the stream had ended. Finish() implies Flush() and may be
///    called exactly once; the session is dead afterwards.
///
/// Sessions own all their mutable state: several sessions of one algorithm
/// object are fully independent and may be interleaved or run on different
/// threads (one thread per session).
class AssignmentSession {
 public:
  virtual ~AssignmentSession() = default;

  /// Switches collection of per-worker DispatchRecords (on by default: a
  /// live dispatcher must emit the relocation commands). Pure measurement
  /// loops that discard the trace turn it off to keep the no-trace path
  /// allocation-free — Run() does so when called without a trace sink.
  /// Flip only before feeding arrivals; decisions never depend on it.
  void set_collect_dispatches(bool collect) { collect_dispatches_ = collect; }
  bool collect_dispatches() const { return collect_dispatches_; }

  /// Feeds the arrival of worker `worker` at time `time` (= its start).
  virtual void OnWorker(WorkerId worker, double time) = 0;

  /// Feeds the arrival of task `task` at time `time` (= its start).
  virtual void OnTask(TaskId task, double time) = 0;

  /// Declares that no arrival earlier than `time` will be fed. Batched
  /// algorithms process every window boundary strictly before `time`;
  /// per-arrival algorithms ignore it.
  virtual void AdvanceTo(double time) { (void)time; }

  /// Adopts a freshly generated guide mid-stream (the serving harness's
  /// hot refresh). Only meaningful at an AdvanceTo boundary: call between
  /// arrivals, never concurrently with OnWorker/OnTask.
  ///
  /// Semantics for guided sessions: pairs already committed stay; all
  /// guide-*dependent* state (node occupancy, wait queues, per-type
  /// cursors) is rebuilt empty against the new guide, so decisions from
  /// here on are exactly those of a fresh session fed the remaining
  /// stream. Returns false — leaving the session untouched — when the
  /// session does not follow a guide (the baselines' default) or the new
  /// guide's spacetime discretization is incompatible with the session's.
  virtual bool SwapGuide(std::shared_ptr<const OfflineGuide> guide) {
    (void)guide;
    return false;
  }

  /// Ends the arrival stream logically: all deferred work (remaining batch
  /// windows, pending pools) is carried out now.
  virtual void Flush() {}

  /// Flushes and returns the assignment plus the decision trace. Call once.
  virtual SessionResult Finish() = 0;

 private:
  bool collect_dispatches_ = true;
};

/// Convenience base for session implementations: holds the universal state
/// (instance, growing assignment, trace) and implements Finish as
/// Flush-then-move-out.
class AssignmentSessionBase : public AssignmentSession {
 public:
  explicit AssignmentSessionBase(const Instance& instance)
      : instance_(&instance),
        assignment_(instance.num_workers(), instance.num_tasks()) {}

  SessionResult Finish() override {
    Flush();
    return SessionResult{std::move(assignment_), std::move(trace_)};
  }

 protected:
  const Instance& instance() const { return *instance_; }

  const Instance* instance_;
  Assignment assignment_;
  RunTrace trace_;
};

/// Base class of every algorithm under evaluation. Algorithm objects carry
/// only configuration (options, the shared guide); all per-run state lives
/// in the sessions they start.
class OnlineAlgorithm {
 public:
  virtual ~OnlineAlgorithm() = default;

  /// Display name used by benches and EXPERIMENTS.md ("POLAR-OP", ...).
  virtual std::string name() const = 0;

  /// Object-level deadline policy this algorithm's committed pairs honor —
  /// the predicate any *external* pass adding pairs on the algorithm's
  /// behalf (the sharded dispatcher's boundary reconciliation,
  /// sim/boundary_reconciler) must also satisfy. The default is the
  /// paper's written predicate (kDispatchAtWorkerStart, used by the POLAR
  /// family and OPT); the wait-in-place baselines override with their
  /// configured policy.
  virtual FeasibilityPolicy feasibility_policy() const {
    return FeasibilityPolicy::kDispatchAtWorkerStart;
  }

  /// The offline guide the algorithm matches along, or nullptr for the
  /// guide-free baselines. External passes use it to stay within the
  /// guide's per-type-pair capacity (OfflineGuide's matched-pair
  /// accounting) when adding pairs for a guided algorithm.
  virtual const OfflineGuide* guide() const { return nullptr; }

  /// Opens a streaming session over `instance`'s object universe. The
  /// instance must outlive the session. Sessions are independent; starting
  /// a new one never disturbs sessions already running.
  virtual std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) = 0;

  /// Batch replay: drives the instance's arrival stream through one session
  /// and returns the assignment. `trace` may be nullptr; when given, the
  /// session's trace is absorbed into it. Runs must be deterministic, and
  /// are bit-identical to feeding the same stream by hand.
  Assignment Run(const Instance& instance, RunTrace* trace = nullptr);
};

}  // namespace ftoa

#endif  // FTOA_CORE_ONLINE_ALGORITHM_H_
