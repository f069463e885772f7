// TGOA (Tong et al., "Online mobile micro-task allocation in spatial
// crowdsourcing", ICDE 2016 — reference [26], the state of the art the
// paper improves upon): a two-sided online algorithm with a 1/4 competitive
// ratio under the random-order model. The first half of arrivals is served
// greedily (nearest feasible counterpart); every later arrival is matched
// only if it participates in an optimal matching of all currently revealed
// unmatched objects — the classical "sample-and-price" guardrail.
//
// Implemented here as an *extension* baseline (the paper compares against
// SimpleGreedy and GR only): it contextualizes the POLAR family against its
// direct predecessor. The predecessor's main practical weakness —
// recomputing a maximum matching per arrival in the second phase — is
// removed: one incremental matcher is carried across the whole run, so each
// second-phase arrival costs one augmenting-path search. Both waiting pools
// search the shared retrieval engine (retrieval/waiting_pool.h). The
// rebuild-per-arrival trial, on a grid-index pool, is a test oracle
// (tests/oracles/rebuild_tgoa).

#ifndef FTOA_BASELINES_TGOA_H_
#define FTOA_BASELINES_TGOA_H_

#include "core/online_algorithm.h"

namespace ftoa {

/// Options for TGOA.
struct TgoaOptions {
  /// Fraction of the total arrival count treated as the greedy phase.
  double greedy_fraction = 0.5;

  /// Pair feasibility; wait-in-place semantics by default, matching the
  /// model of [26] (workers do not relocate).
  FeasibilityPolicy policy = FeasibilityPolicy::kDispatchAtAssignmentTime;
};

/// The TGOA baseline.
class Tgoa : public OnlineAlgorithm {
 public:
  explicit Tgoa(TgoaOptions options = {});

  std::string name() const override { return "TGOA"; }
  FeasibilityPolicy feasibility_policy() const override {
    return options_.policy;
  }

  std::unique_ptr<AssignmentSession> StartSession(
      const Instance& instance) override;

 private:
  TgoaOptions options_;
};

}  // namespace ftoa

#endif  // FTOA_BASELINES_TGOA_H_
