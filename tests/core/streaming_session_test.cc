// Batch/stream equivalence suite for the AssignmentSession API: for every
// algorithm in the registry, feeding the arrival stream through a session
// by hand must produce an Assignment and RunTrace bit-identical to the
// batch Run() driver (which is the same replay by construction); sessions
// of one algorithm object must be independent; and the registry must round
// trip every name.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "gen/synthetic.h"
#include "model/arrival_stream.h"
#include "oracles/rebuild_gr_batch.h"
#include "oracles/rebuild_tgoa.h"
#include "test_util.h"

namespace ftoa {
namespace {

using ::ftoa::testing::AllArrivalPatterns;
using ::ftoa::testing::ArrivalPattern;
using ::ftoa::testing::ArrivalPatternName;
using ::ftoa::testing::ExpectIdenticalRun;
using ::ftoa::testing::MakeFuzzUniverse;

SyntheticConfig SmallConfig(uint64_t seed) {
  SyntheticConfig config;
  config.num_workers = 400;
  config.num_tasks = 400;
  config.grid_x = 10;
  config.grid_y = 10;
  config.num_slots = 8;
  config.seed = seed;
  return config;
}

/// Instance plus the guide its POLAR-family algorithms run against (built
/// from an independent replicate prediction, the realistic regime).
struct Universe {
  Instance instance;
  AlgorithmDeps deps;
};

Universe MakeUniverse(uint64_t seed) {
  const SyntheticConfig config = SmallConfig(seed);
  auto instance = GenerateSyntheticInstance(config);
  EXPECT_TRUE(instance.ok());
  auto prediction = GenerateSyntheticPrediction(config);
  EXPECT_TRUE(prediction.ok());
  GuideOptions options;
  options.engine = GuideOptions::Engine::kAuto;
  options.worker_duration = config.worker_duration;
  options.task_duration = config.task_duration;
  auto guide = GuideGenerator(config.velocity, options).Generate(*prediction);
  EXPECT_TRUE(guide.ok());
  Universe universe{std::move(*instance), {}};
  universe.deps.guide =
      std::make_shared<const OfflineGuide>(std::move(*guide));
  return universe;
}

/// Drives the instance's arrival stream through a fresh session by hand.
/// With `advance` set, every arrival is preceded by (redundant, repeated)
/// AdvanceTo calls and the stream ends with an explicit Flush — none of
/// which may change the result.
SessionResult DriveByHand(OnlineAlgorithm* algorithm,
                          const Instance& instance, bool advance) {
  std::unique_ptr<AssignmentSession> session =
      algorithm->StartSession(instance);
  for (const ArrivalEvent& event : BuildArrivalStream(instance)) {
    if (advance) {
      session->AdvanceTo(event.time);
      session->AdvanceTo(event.time);  // AdvanceTo must be idempotent.
    }
    if (event.kind == ObjectKind::kWorker) {
      session->OnWorker(event.index, event.time);
    } else {
      session->OnTask(event.index, event.time);
    }
  }
  if (advance) session->Flush();  // Finish() implies Flush(); also explicit.
  return session->Finish();
}

class SessionEquivalenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SessionEquivalenceTest, StreamMatchesBatchBitForBit) {
  const Universe universe = MakeUniverse(311);
  auto algorithm = CreateAlgorithm(GetParam(), universe.deps);
  ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();

  RunTrace batch_trace;
  const Assignment batch = (*algorithm)->Run(universe.instance, &batch_trace);
  EXPECT_GT(batch.size(), 0u);  // A degenerate universe would prove nothing.

  // The no-trace fast path (dispatch collection off) must not change a
  // single decision.
  const Assignment traceless = (*algorithm)->Run(universe.instance);
  ASSERT_EQ(traceless.size(), batch.size());
  for (size_t i = 0; i < batch.pairs().size(); ++i) {
    EXPECT_EQ(traceless.pairs()[i].worker, batch.pairs()[i].worker);
    EXPECT_EQ(traceless.pairs()[i].task, batch.pairs()[i].task);
  }

  const SessionResult streamed =
      DriveByHand(algorithm->get(), universe.instance, /*advance=*/false);
  ExpectIdenticalRun(batch, batch_trace, streamed.assignment, streamed.trace,
                  std::string(GetParam()) + " plain");

  const SessionResult advanced =
      DriveByHand(algorithm->get(), universe.instance, /*advance=*/true);
  ExpectIdenticalRun(batch, batch_trace, advanced.assignment, advanced.trace,
                  std::string(GetParam()) + " with AdvanceTo/Flush");
}

TEST_P(SessionEquivalenceTest, AdversarialArrivalPatternsStreamIdentically) {
  // The synthetic universes above exercise only well-mixed arrival orders
  // (BuildArrivalStream over Table 4 temporal normals); the fuzz patterns
  // force the adversarial ones — all workers before any task (and the
  // reverse), strict alternation, equal-timestamp bursts that stress batch
  // windows and tie-breaks, and ids uncorrelated with arrival order.
  for (const ArrivalPattern pattern : AllArrivalPatterns()) {
    const auto universe = MakeFuzzUniverse(97, pattern, 80, 80);
    auto algorithm = CreateAlgorithm(GetParam(), universe.deps);
    ASSERT_TRUE(algorithm.ok()) << algorithm.status().ToString();

    RunTrace batch_trace;
    const Assignment batch =
        (*algorithm)->Run(universe.instance, &batch_trace);
    const SessionResult streamed =
        DriveByHand(algorithm->get(), universe.instance, /*advance=*/true);
    ExpectIdenticalRun(batch, batch_trace, streamed.assignment,
                       streamed.trace,
                       std::string(GetParam()) + " pattern " +
                           ArrivalPatternName(pattern));
  }
}

TEST_P(SessionEquivalenceTest, InterleavedSessionsAreIndependent) {
  // Two concurrent sessions of ONE algorithm object, fed alternately from
  // two different universes, must each reproduce their solo run — the
  // substrate for a sharded dispatcher running many live sessions off one
  // configured algorithm.
  const Universe first = MakeUniverse(311);
  const Universe second = MakeUniverse(1229);
  auto algorithm = CreateAlgorithm(GetParam(), first.deps);
  ASSERT_TRUE(algorithm.ok());
  // The second universe's POLAR family needs its own guide.
  auto second_algorithm = CreateAlgorithm(GetParam(), second.deps);
  ASSERT_TRUE(second_algorithm.ok());

  RunTrace solo_first_trace;
  const Assignment solo_first =
      (*algorithm)->Run(first.instance, &solo_first_trace);
  RunTrace solo_second_trace;
  const Assignment solo_second =
      (*second_algorithm)->Run(second.instance, &solo_second_trace);

  std::unique_ptr<AssignmentSession> session_a =
      (*algorithm)->StartSession(first.instance);
  std::unique_ptr<AssignmentSession> session_b =
      (*second_algorithm)->StartSession(second.instance);
  const std::vector<ArrivalEvent> events_a =
      BuildArrivalStream(first.instance);
  const std::vector<ArrivalEvent> events_b =
      BuildArrivalStream(second.instance);
  const size_t steps = std::max(events_a.size(), events_b.size());
  for (size_t i = 0; i < steps; ++i) {
    for (const auto& [events, session] :
         {std::make_pair(&events_a, session_a.get()),
          std::make_pair(&events_b, session_b.get())}) {
      if (i >= events->size()) continue;
      const ArrivalEvent& event = (*events)[i];
      if (event.kind == ObjectKind::kWorker) {
        session->OnWorker(event.index, event.time);
      } else {
        session->OnTask(event.index, event.time);
      }
    }
  }
  const SessionResult result_a = session_a->Finish();
  const SessionResult result_b = session_b->Finish();
  ExpectIdenticalRun(solo_first, solo_first_trace, result_a.assignment,
                  result_a.trace,
                  std::string(GetParam()) + " interleaved A");
  ExpectIdenticalRun(solo_second, solo_second_trace, result_b.assignment,
                  result_b.trace,
                  std::string(GetParam()) + " interleaved B");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SessionEquivalenceTest,
                         ::testing::Values("simple-greedy", "gr", "tgoa",
                                           "polar", "polar-op", "polar-op-g",
                                           "opt"),
                         [](const auto& tpi) {
                           std::string name = tpi.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SessionEquivalenceTest, ParameterListCoversTheWholeRegistry) {
  // If a new algorithm joins the registry, the INSTANTIATE list above must
  // grow with it.
  EXPECT_EQ(AllAlgorithmNames(),
            (std::vector<std::string>{"simple-greedy", "gr", "tgoa", "polar",
                                      "polar-op", "polar-op-g", "opt"}));
}

TEST(SessionEquivalenceTest, RebuildModesStreamIdentically) {
  // The rebuild-per-batch oracles of TGOA and GR go through the same
  // session machinery; their streamed runs must equal their batch runs.
  // Production TGOA commits the oracle's pairs; production GR may pick
  // other equally large matchings per window, so only its size is pinned.
  const Universe universe = MakeUniverse(47);
  testing::RebuildTgoa rebuild_tgoa(universe.deps.tgoa_options);
  testing::RebuildGrBatch rebuild_gr(universe.deps.gr_options);
  const std::pair<const char*, OnlineAlgorithm*> cases[] = {
      {"tgoa", &rebuild_tgoa}, {"gr", &rebuild_gr}};
  for (const auto& [name, oracle] : cases) {
    RunTrace batch_trace;
    const Assignment batch = oracle->Run(universe.instance, &batch_trace);
    const SessionResult streamed =
        DriveByHand(oracle, universe.instance, /*advance=*/true);
    ExpectIdenticalRun(batch, batch_trace, streamed.assignment, streamed.trace,
                       std::string(name) + " rebuild mode");
    auto production = CreateAlgorithm(name, universe.deps);
    ASSERT_TRUE(production.ok());
    const Assignment produced = (*production)->Run(universe.instance);
    if (std::string(name) == "tgoa") {
      testing::ExpectSamePairs(produced, batch,
                               std::string(name) + " production vs oracle");
    } else {
      EXPECT_EQ(produced.size(), batch.size()) << name;
    }
  }
}

TEST(AlgorithmRegistryTest, RoundTripsEveryName) {
  const Universe universe = MakeUniverse(7);
  for (const std::string& name : AllAlgorithmNames()) {
    auto algorithm = CreateAlgorithm(name, universe.deps);
    ASSERT_TRUE(algorithm.ok()) << name;
    // The constructed default configuration reports the display name the
    // registry advertises without construction.
    EXPECT_EQ((*algorithm)->name(), AlgorithmDisplayName(name)) << name;
    // Every registry algorithm can open a session immediately, and a
    // session fed no arrivals matches nothing — including OPT, whose
    // buffering session solves over the *fed* sub-universe (the contract
    // the sharded dispatcher relies on to keep per-shard OPT solves
    // disjoint).
    std::unique_ptr<AssignmentSession> session =
        (*algorithm)->StartSession(universe.instance);
    const SessionResult result = session->Finish();
    EXPECT_EQ(result.assignment.size(), 0u)
        << name << " (no arrivals fed)";
  }
}

TEST(AlgorithmRegistryTest, UnknownNameListsTheValidSet) {
  const auto result = CreateAlgorithm("no-such-algorithm");
  ASSERT_FALSE(result.ok());
  const std::string message = result.status().ToString();
  EXPECT_NE(message.find("unknown algorithm"), std::string::npos) << message;
  for (const std::string& name : AllAlgorithmNames()) {
    EXPECT_NE(message.find(name), std::string::npos) << message;
  }
}

TEST(AlgorithmRegistryTest, GuideRequirementIsEnforced) {
  for (const std::string& name : AllAlgorithmNames()) {
    const auto without_guide = CreateAlgorithm(name);
    EXPECT_EQ(without_guide.ok(), !AlgorithmNeedsGuide(name)) << name;
  }
  EXPECT_TRUE(AlgorithmNeedsGuide("polar"));
  EXPECT_TRUE(AlgorithmNeedsGuide("polar-op"));
  EXPECT_TRUE(AlgorithmNeedsGuide("polar-op-g"));
  EXPECT_FALSE(AlgorithmNeedsGuide("simple-greedy"));
  EXPECT_FALSE(AlgorithmNeedsGuide("no-such-algorithm"));
  EXPECT_EQ(AlgorithmDisplayName("no-such-algorithm"), "");
}

TEST(AlgorithmRegistryTest, DepsOptionsReachTheAlgorithms) {
  AlgorithmDeps deps;
  deps.simple_greedy_options.policy =
      FeasibilityPolicy::kDispatchAtWorkerStart;
  deps.tgoa_options.policy = FeasibilityPolicy::kDispatchAtWorkerStart;
  for (const char* name : {"simple-greedy", "tgoa"}) {
    auto algorithm = CreateAlgorithm(name, deps);
    ASSERT_TRUE(algorithm.ok()) << name;
    EXPECT_EQ((*algorithm)->feasibility_policy(),
              FeasibilityPolicy::kDispatchAtWorkerStart)
        << name;
  }
}

}  // namespace
}  // namespace ftoa
