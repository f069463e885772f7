#include "core/online_algorithm.h"

#include "model/arrival_stream.h"

namespace ftoa {

void RunTrace::Absorb(RunTrace&& other) {
  if (dispatches.empty()) {
    dispatches = std::move(other.dispatches);
  } else {
    dispatches.insert(dispatches.end(), other.dispatches.begin(),
                      other.dispatches.end());
  }
  ignored_workers += other.ignored_workers;
  ignored_tasks += other.ignored_tasks;
  matcher_augment_searches += other.matcher_augment_searches;
  retrieval.Absorb(other.retrieval);
}

Assignment OnlineAlgorithm::Run(const Instance& instance, RunTrace* trace) {
  const std::unique_ptr<AssignmentSession> session = StartSession(instance);
  // Without a trace sink the dispatch records would be dropped on the
  // floor; skip materializing them (the pre-session API's nullptr path).
  if (trace == nullptr) session->set_collect_dispatches(false);
  for (const ArrivalEvent& event : BuildArrivalStream(instance)) {
    if (event.kind == ObjectKind::kWorker) {
      session->OnWorker(event.index, event.time);
    } else {
      session->OnTask(event.index, event.time);
    }
  }
  SessionResult result = session->Finish();
  if (trace != nullptr) trace->Absorb(std::move(result.trace));
  return std::move(result.assignment);
}

}  // namespace ftoa
