// Shared driver of E7/E8 — Figure 5, columns 3-4: the five algorithm
// series on the (simulated) Beijing/Hangzhou taxi-calling traces while
// varying the task deadline Dr in {0.5, 0.75, 1.0, 1.25, 1.5}. The full
// two-step pipeline runs per point: multi-week history -> offline
// prediction (HP-MSI, the Table 5 winner) -> guide -> online assignment.

#ifndef FTOA_BENCH_BENCH_FIG5_REAL_H_
#define FTOA_BENCH_BENCH_FIG5_REAL_H_

#include <string>
#include <vector>

#include "gen/city_trace.h"
#include "harness.h"
#include "prediction/hp_msi.h"
#include "util/table_printer.h"

namespace ftoa {
namespace bench {

/// Builds the predicted per-type matrices for `day` from `predictor`.
inline PredictionMatrix PredictCityDay(Predictor* predictor,
                                       const CityTraceGenerator& generator,
                                       const DemandDataset& history,
                                       int train_days, int day) {
  const SpacetimeSpec st = generator.DaySpacetime();
  std::vector<double> workers(static_cast<size_t>(st.num_types()), 0.0);
  std::vector<double> tasks(workers.size(), 0.0);
  for (const DemandSide side :
       {DemandSide::kWorkers, DemandSide::kTasks}) {
    if (!predictor->Fit(history, train_days, side).ok()) {
      std::fprintf(stderr, "predictor fit failed\n");
      std::exit(1);
    }
    std::vector<double>& out =
        side == DemandSide::kWorkers ? workers : tasks;
    for (int slot = 0; slot < history.slots_per_day(); ++slot) {
      const std::vector<double> predicted =
          predictor->Predict(history, day, slot);
      for (int cell = 0; cell < history.num_cells(); ++cell) {
        out[static_cast<size_t>(st.TypeAt(slot, cell))] =
            predicted[static_cast<size_t>(cell)];
      }
    }
  }
  return PredictionMatrix::FromIntensities(st, workers, tasks);
}

/// Runs the Dr sweep for one city profile and prints the figure.
inline int RunCityDeadlineSweep(const CityProfile& base_profile,
                                const std::string& figure_name, int argc,
                                char** argv) {
  const BenchContext context = ParseArgs(argc, argv);
  // Default city scale: the full Table 3 volume is ~50k objects/day; the
  // default bench runs at ~1/8 volume with a proportionally smaller grid.
  const double city_scale = context.scale * 0.5;

  const double deadlines[] = {0.5, 0.75, 1.0, 1.25, 1.5};
  std::vector<SweepPoint> points;
  for (double dr : deadlines) {
    CityProfile profile = ScaledCityProfile(base_profile, city_scale);
    profile.task_duration = dr;
    const CityTraceGenerator generator(profile);
    const DemandDataset history = generator.GenerateHistory();
    const int train_days = profile.history_days - 7;
    const int test_day = profile.history_days - 3;

    HpMsiPredictor predictor;
    const PredictionMatrix prediction = PredictCityDay(
        &predictor, generator, history, train_days, test_day);
    auto instance = generator.GenerateInstanceForDay(test_day);
    if (!instance.ok()) {
      std::fprintf(stderr, "city instance generation failed\n");
      return 1;
    }
    GuideOptions guide_options;
    guide_options.engine = GuideOptions::Engine::kCompressed;
    guide_options.worker_duration = profile.worker_duration;
    guide_options.task_duration = profile.task_duration;
    // Coarse 2-hour slots: grant the expected intra-slot movement credit
    // the midpoint representatives would otherwise discard.
    guide_options.representative_slack =
        0.5 * generator.DaySpacetime().slots().slot_duration();

    SweepPoint point;
    point.x_label = TablePrinter::FormatDouble(dr, 2);
    point.metrics = RunSuite(*instance, prediction, guide_options, context);
    points.push_back(std::move(point));
  }
  PrintFigure(figure_name, "Dr", points, context);
  return 0;
}

}  // namespace bench
}  // namespace ftoa

#endif  // FTOA_BENCH_BENCH_FIG5_REAL_H_
