// The generator's cached candidate table against the per-call enumeration
// it replaced (tests/oracles/per_call_type_pairs): for every prediction the
// pair list must be identical, element for element and in order, however
// the table was filled by earlier calls. The node-level edge estimate and
// the approximate-mode sample read that list, so they must not move either.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "oracles/per_call_type_pairs.h"
#include "util/rng.h"

namespace ftoa {
namespace {

using ftoa::testing::PerCallTypePairs;

struct Geometry {
  SpacetimeSpec spacetime;
  double velocity;
};

/// Each type gets workers (tasks) with probability `worker_density`
/// (`task_density`); counts are 1..4.
PredictionMatrix RandomSupport(const SpacetimeSpec& spacetime,
                               double worker_density, double task_density,
                               Rng& rng) {
  PredictionMatrix prediction(spacetime);
  for (TypeId type = 0; type < spacetime.num_types(); ++type) {
    if (rng.NextBool(worker_density)) {
      prediction.set_workers_at(
          type, 1 + static_cast<int32_t>(rng.NextBounded(4)));
    }
    if (rng.NextBool(task_density)) {
      prediction.set_tasks_at(type,
                              1 + static_cast<int32_t>(rng.NextBounded(4)));
    }
  }
  return prediction;
}

bool SamePairs(const std::vector<TypePairEdge>& a,
               const std::vector<TypePairEdge>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TypePairEdge& x, const TypePairEdge& y) {
                      return x.worker_type == y.worker_type &&
                             x.task_type == y.task_type;
                    });
}

void ExpectMatchesOracle(const GuideGenerator& generator,
                         const PredictionMatrix& prediction, double velocity,
                         const GuideOptions& options,
                         const std::string& label) {
  const std::vector<TypePairEdge> want =
      PerCallTypePairs(prediction, velocity, options);
  const std::vector<TypePairEdge>& got =
      generator.FeasibleTypePairs(prediction);
  ASSERT_EQ(got.size(), want.size()) << label;
  ASSERT_TRUE(SamePairs(got, want)) << label;
  int64_t node_edges = 0;
  for (const auto& [wt, tt] : want) {
    node_edges += static_cast<int64_t>(prediction.workers_at(wt)) *
                  prediction.tasks_at(tt);
  }
  EXPECT_EQ(generator.EstimateNodeLevelEdges(prediction), node_edges)
      << label;
}

// Non-unit cells, so cell centers and disk bounds are not integers.
Geometry SmallDisks() {
  // Slow workers: every feasibility disk (radius below 0.6) stays inside
  // its own cell, so the one-cell box wins whenever the slot has a task.
  return {SpacetimeSpec(SlotSpec(12.0, 8), GridSpec(21.0, 14.0, 9, 6)), 0.1};
}

Geometry WideDisks() {
  // Fast workers: every slack is at least 0.5, so every disk covers the
  // whole grid and the slot's nonempty cells win unless all are nonempty.
  return {SpacetimeSpec(SlotSpec(12.0, 8), GridSpec(21.0, 14.0, 9, 6)),
          100.0};
}

Geometry MixedDisks() {
  // Disks of a few cells: which side wins varies with the slack and the
  // support.
  return {SpacetimeSpec(SlotSpec(24.0, 12), GridSpec(30.0, 20.0, 12, 8)),
          2.0};
}

GuideOptions Options(double representative_slack) {
  GuideOptions options;
  options.worker_duration = 3.0;
  options.task_duration = 2.0;
  options.representative_slack = representative_slack;
  return options;
}

TEST(CandidateTableTest, RandomSupportsMatchTheOracle) {
  const double densities[] = {0.0, 0.05, 0.3, 0.7, 1.0};
  for (const Geometry& geometry : {SmallDisks(), WideDisks(), MixedDisks()}) {
    const double half_slot =
        0.5 * geometry.spacetime.slots().slot_duration();
    for (const double slack : {0.0, half_slot}) {
      const GuideOptions options = Options(slack);
      Rng rng(static_cast<uint64_t>(geometry.velocity * 1000) + 7);
      for (const double wd : densities) {
        for (const double td : densities) {
          // A fresh generator per support: the table is built by this call.
          const GuideGenerator generator(geometry.velocity, options);
          const PredictionMatrix prediction =
              RandomSupport(geometry.spacetime, wd, td, rng);
          ExpectMatchesOracle(generator, prediction, geometry.velocity,
                              options,
                              "velocity " + std::to_string(geometry.velocity) +
                                  " slack " + std::to_string(slack) +
                                  " densities " + std::to_string(wd) + "/" +
                                  std::to_string(td));
        }
      }
    }
  }
}

TEST(CandidateTableTest, OneGeneratorFollowsChangingSupport) {
  for (const Geometry& geometry : {SmallDisks(), WideDisks(), MixedDisks()}) {
    const GuideOptions options = Options(0.0);
    const GuideGenerator generator(geometry.velocity, options);
    Rng rng(91);
    for (int call = 0; call < 40; ++call) {
      // Sweep from sparse to dense and back, so disks built under one
      // support serve the next, and a side that lost once wins later.
      const double density = 0.05 + 0.9 * std::abs(std::sin(call * 0.4));
      const PredictionMatrix prediction = RandomSupport(
          geometry.spacetime, density, 1.0 - density * 0.9, rng);
      ExpectMatchesOracle(generator, prediction, geometry.velocity, options,
                          "call " + std::to_string(call));
    }
  }
}

TEST(CandidateTableTest, ANewGeometryRebuildsTheTable) {
  // Same type count, different cell sizes: a table keyed on the type count
  // alone would serve stale disks.
  const SpacetimeSpec coarse(SlotSpec(24.0, 12), GridSpec(30.0, 20.0, 12, 8));
  const SpacetimeSpec fine(SlotSpec(24.0, 12), GridSpec(12.0, 8.0, 12, 8));
  const SpacetimeSpec other_slots(SlotSpec(36.0, 12),
                                  GridSpec(30.0, 20.0, 12, 8));
  const GuideOptions options = Options(0.0);
  const GuideGenerator generator(2.0, options);
  Rng rng(5);
  for (const SpacetimeSpec* spacetime :
       {&coarse, &fine, &coarse, &other_slots, &fine}) {
    const PredictionMatrix prediction =
        RandomSupport(*spacetime, 0.4, 0.6, rng);
    ExpectMatchesOracle(generator, prediction, 2.0, options,
                        "cells " + std::to_string(
                                       spacetime->grid().cell_width()) +
                            " horizon " +
                            std::to_string(spacetime->slots().horizon()));
  }
}

TEST(CandidateTableTest, ApproximateSampleIsUnchanged) {
  const Geometry geometry = MixedDisks();
  GuideOptions options = Options(0.0);
  options.engine = GuideOptions::Engine::kCompressed;
  options.approx_sample_rate = 0.6;
  const GuideGenerator generator(geometry.velocity, options);
  Rng rng(17);
  for (int call = 0; call < 6; ++call) {
    const PredictionMatrix prediction =
        RandomSupport(geometry.spacetime, 0.5, 0.5, rng);
    // The sample is a seeded Bernoulli draw per pair in enumeration order.
    const std::vector<TypePairEdge> pairs =
        PerCallTypePairs(prediction, geometry.velocity, options);
    Rng sampler(options.approx_seed);
    ApproxGuideReport want;
    want.feasible_pairs = static_cast<int64_t>(pairs.size());
    for (const TypePairEdge& pair : pairs) {
      if (sampler.NextBool(options.approx_sample_rate)) {
        ++want.sampled_pairs;
      } else {
        want.utility_loss_bound +=
            std::min<int64_t>(prediction.workers_at(pair.worker_type),
                              prediction.tasks_at(pair.task_type));
      }
    }
    ASSERT_TRUE(generator.Generate(prediction).ok());
    const ApproxGuideReport& got = generator.last_approx_report();
    EXPECT_EQ(got.feasible_pairs, want.feasible_pairs) << "call " << call;
    EXPECT_EQ(got.sampled_pairs, want.sampled_pairs) << "call " << call;
    EXPECT_EQ(got.utility_loss_bound, want.utility_loss_bound)
        << "call " << call;
  }
}

}  // namespace
}  // namespace ftoa
