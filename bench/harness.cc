#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "core/algorithm_registry.h"
#include "gen/looped_trace.h"
#include "sim/runner.h"
#include "util/csv.h"
#include "util/thread_pool.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace ftoa {
namespace bench {

BenchContext ParseArgs(int argc, char** argv) {
  BenchContext context;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (StartsWith(arg, "--scale=")) {
      const auto value = ParseDouble(arg.substr(8));
      if (!value.ok() || *value <= 0.0) {
        std::fprintf(stderr, "invalid --scale value: %s\n", arg.c_str());
        std::exit(2);
      }
      context.scale = *value;
    } else if (arg == "--no-opt") {
      context.include_opt = false;
    } else if (arg == "--hybrid") {
      context.include_hybrid = true;
    } else if (arg == "--tgoa") {
      context.include_tgoa = true;
    } else if (StartsWith(arg, "--prediction=")) {
      const std::string mode = arg.substr(13);
      if (mode == "expected") {
        context.prediction_mode = PredictionMode::kExpected;
      } else if (mode == "replicate") {
        context.prediction_mode = PredictionMode::kReplicate;
      } else if (mode == "perfect") {
        context.prediction_mode = PredictionMode::kPerfect;
      } else {
        std::fprintf(stderr, "invalid --prediction value: %s\n",
                     mode.c_str());
        std::exit(2);
      }
    } else if (StartsWith(arg, "--csv=")) {
      context.csv_dir = arg.substr(6);
    } else if (StartsWith(arg, "--threads=")) {
      const auto value = ParseInt(arg.substr(10));
      if (!value.ok() || *value < 1 || *value > 1024) {
        std::fprintf(stderr, "invalid --threads value: %s\n", arg.c_str());
        std::exit(2);
      }
      context.num_threads = static_cast<int>(*value);
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--scale=<f>] [--no-opt] [--hybrid] "
                   "[--csv=<dir>] [--threads=<n>]\n",
                   argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return context;
}

SyntheticConfig DefaultSyntheticConfig(const BenchContext& context) {
  SyntheticConfig config;  // Paper defaults (Table 4, bold).
  config.num_workers =
      static_cast<int>(std::lround(20000 * context.scale));
  config.num_tasks = static_cast<int>(std::lround(20000 * context.scale));
  return config;
}

CityProfile ScaledCityProfile(const CityProfile& base, double scale) {
  CityProfile profile = base;
  profile.workers_per_day = base.workers_per_day * scale;
  profile.tasks_per_day = base.tasks_per_day * scale;
  // Shrink the grid with sqrt(scale) per axis so objects per cell (and per
  // type) stay roughly constant.
  const double axis = std::sqrt(scale);
  profile.grid_x = std::max(4, static_cast<int>(std::lround(
                                   base.grid_x * axis)));
  profile.grid_y = std::max(3, static_cast<int>(std::lround(
                                   base.grid_y * axis)));
  return profile;
}

PredictionMatrix BeijingHalfDayPrediction() {
  LoopedTraceSource::Options trace;
  trace.scale = 0.5;
  const LoopedTraceSource source(BeijingProfile(), trace);
  const std::vector<int> workers =
      source.generator().SampleDayCounts(DemandSide::kWorkers, 0);
  const std::vector<int> tasks =
      source.generator().SampleDayCounts(DemandSide::kTasks, 0);
  PredictionMatrix prediction(source.DaySpacetime());
  for (TypeId type = 0; type < prediction.spacetime().num_types(); ++type) {
    prediction.set_workers_at(type, workers[static_cast<size_t>(type)]);
    prediction.set_tasks_at(type, tasks[static_cast<size_t>(type)]);
  }
  return prediction;
}

std::vector<RunMetrics> RunSuite(const Instance& instance,
                                 const PredictionMatrix& prediction,
                                 const GuideOptions& guide_options,
                                 const BenchContext& context) {
  // Offline preprocessing (guide generation), excluded from measurements.
  auto guide_result = GuideGenerator(instance.velocity(), guide_options)
                          .Generate(prediction);
  if (!guide_result.ok()) {
    std::fprintf(stderr, "guide generation failed: %s\n",
                 guide_result.status().ToString().c_str());
    std::exit(1);
  }
  return RunSuiteWithGuide(instance,
                           std::make_shared<const OfflineGuide>(
                               std::move(guide_result).value()),
                           context);
}

std::vector<RunMetrics> RunSuiteWithGuide(
    const Instance& instance,
    const std::shared_ptr<const OfflineGuide>& guide,
    const BenchContext& context) {
  std::vector<RunMetrics> results;

  // The five paper series plus the opt-in extensions, all built through the
  // algorithm registry (figure order: greedy, GR, [TGOA], POLAR family).
  std::vector<std::string> suite = {"simple-greedy", "gr", "polar",
                                    "polar-op"};
  if (context.include_tgoa) {
    suite.insert(suite.begin() + 2, "tgoa");
  }
  if (context.include_hybrid) suite.push_back("polar-op-g");
  const bool run_opt =
      context.include_opt &&
      static_cast<int64_t>(instance.num_workers()) <=
          context.opt_object_cap &&
      static_cast<int64_t>(instance.num_tasks()) <= context.opt_object_cap;
  if (run_opt) suite.push_back("opt");

  AlgorithmDeps deps;
  deps.guide = guide;
  for (const std::string& name : suite) {
    auto algorithm = CreateAlgorithm(name, deps);
    if (!algorithm.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   algorithm.status().ToString().c_str());
      std::exit(1);
    }
    auto metrics = RunAlgorithm(algorithm->get(), instance);
    if (!metrics.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", name.c_str(),
                   metrics.status().ToString().c_str());
      std::exit(1);
    }
    results.push_back(std::move(metrics).value());
  }
  return results;
}

namespace {

/// A sweep point's offline preprocessing: the realized instance plus the
/// guide built from its prediction. Everything the measured (serial) run
/// needs, with the expensive generation work already done.
struct PreparedPoint {
  std::string x_label;
  Instance instance;
  std::shared_ptr<const OfflineGuide> guide;
};

/// Generates instance + prediction + guide for one sweep point. Throws
/// std::runtime_error on failure — this runs on pool workers, where
/// std::exit is unsafe; the pool's futures carry the exception back to the
/// main thread.
PreparedPoint PreparePoint(const std::string& x_label,
                           const SyntheticConfig& config,
                           const BenchContext& context) {
  auto instance = GenerateSyntheticInstance(config);
  if (!instance.ok()) {
    throw std::runtime_error("workload generation failed: " +
                             instance.status().ToString());
  }
  Result<PredictionMatrix> prediction = [&]() -> Result<PredictionMatrix> {
    switch (context.prediction_mode) {
      case PredictionMode::kReplicate:
        return GenerateSyntheticPrediction(config);
      case PredictionMode::kPerfect:
        return PredictionMatrix::FromInstance(*instance);
      case PredictionMode::kExpected:
        break;
    }
    return GenerateSyntheticExpectedPrediction(config);
  }();
  if (!prediction.ok()) {
    throw std::runtime_error("prediction generation failed: " +
                             prediction.status().ToString());
  }
  GuideOptions guide_options;
  guide_options.engine = GuideOptions::Engine::kAuto;
  guide_options.worker_duration = config.worker_duration;
  guide_options.task_duration = config.task_duration;
  auto guide_result = GuideGenerator(instance->velocity(), guide_options)
                          .Generate(*prediction);
  if (!guide_result.ok()) {
    throw std::runtime_error("guide generation failed: " +
                             guide_result.status().ToString());
  }
  return PreparedPoint{x_label, std::move(*instance),
                       std::make_shared<const OfflineGuide>(
                           std::move(guide_result).value())};
}

/// Exits from the calling (main) thread with the failure message.
[[noreturn]] void DiePreparing(const std::exception& e) {
  std::fprintf(stderr, "%s\n", e.what());
  std::exit(1);
}

}  // namespace

SweepPoint RunSyntheticPoint(const std::string& x_label,
                             const SyntheticConfig& config,
                             const BenchContext& context) {
  try {
    PreparedPoint prepared = PreparePoint(x_label, config, context);
    SweepPoint point;
    point.x_label = x_label;
    point.metrics =
        RunSuiteWithGuide(prepared.instance, prepared.guide, context);
    return point;
  } catch (const std::exception& e) {
    DiePreparing(e);
  }
}

std::vector<SweepPoint> RunSyntheticSweep(
    const std::vector<SweepConfig>& configs, const BenchContext& context) {
  std::vector<std::unique_ptr<PreparedPoint>> prepared(configs.size());
  const int pool_size = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(1, context.num_threads)),
                       configs.size()));
  try {
    if (pool_size > 1) {
      ThreadPool pool(pool_size);
      std::vector<std::future<void>> done;
      done.reserve(configs.size());
      for (size_t i = 0; i < configs.size(); ++i) {
        done.push_back(pool.Submit([&prepared, &configs, &context, i]() {
          prepared[i] = std::make_unique<PreparedPoint>(
              PreparePoint(configs[i].x_label, configs[i].config, context));
        }));
      }
      for (std::future<void>& f : done) f.get();
    } else {
      for (size_t i = 0; i < configs.size(); ++i) {
        prepared[i] = std::make_unique<PreparedPoint>(
            PreparePoint(configs[i].x_label, configs[i].config, context));
      }
    }
  } catch (const std::exception& e) {
    DiePreparing(e);  // Rethrown by future.get() on the main thread.
  }

  // Measured runs stay serial and in sweep order (see harness.h). Each
  // point is released right after its run: a scalability sweep's instances
  // are large, and holding all of them through the measured phase would
  // multiply the bench's resident set by the sweep length.
  std::vector<SweepPoint> points;
  points.reserve(prepared.size());
  for (std::unique_ptr<PreparedPoint>& p : prepared) {
    SweepPoint point;
    point.x_label = p->x_label;
    point.metrics = RunSuiteWithGuide(p->instance, p->guide, context);
    points.push_back(std::move(point));
    p.reset();
  }
  return points;
}

namespace {

void MaybeDumpCsv(const BenchContext& context,
                  const std::string& figure_name, const std::string& metric,
                  const std::vector<std::string>& header,
                  const std::vector<std::vector<std::string>>& rows) {
  if (context.csv_dir.empty()) return;
  const std::string path =
      context.csv_dir + "/" + figure_name + "_" + metric + ".csv";
  CsvWriter writer(path);
  if (!writer.Ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  writer.WriteRow(header);
  for (const auto& row : rows) writer.WriteRow(row);
  writer.Close();
}

}  // namespace

void PrintFigure(const std::string& figure_name, const std::string& x_name,
                 const std::vector<SweepPoint>& points,
                 const BenchContext& context) {
  if (points.empty()) return;

  // Column set: union of algorithm names in first row order.
  std::vector<std::string> algorithms;
  for (const SweepPoint& point : points) {
    for (const RunMetrics& metrics : point.metrics) {
      bool known = false;
      for (const std::string& name : algorithms) {
        if (name == metrics.algorithm) known = true;
      }
      if (!known) algorithms.push_back(metrics.algorithm);
    }
  }

  auto cell_for = [&](const SweepPoint& point, const std::string& algorithm,
                      int which) -> std::string {
    for (const RunMetrics& metrics : point.metrics) {
      if (metrics.algorithm != algorithm) continue;
      switch (which) {
        case 0:
          return TablePrinter::FormatInt(metrics.matching_size);
        case 1:
          return TablePrinter::FormatDouble(metrics.elapsed_seconds, 3);
        case 2:
          return TablePrinter::FormatDouble(
              static_cast<double>(metrics.peak_memory_bytes) / (1 << 20), 1);
      }
    }
    return "-";
  };

  static const char* kMetricNames[] = {"MatchingSize", "Time(secs)",
                                       "Memory(MB)"};
  std::cout << "\n=== " << figure_name << " (scale=" << context.scale
            << ") ===\n";
  for (int which = 0; which < 3; ++which) {
    std::vector<std::string> header = {x_name};
    header.insert(header.end(), algorithms.begin(), algorithms.end());
    TablePrinter table(header);
    std::vector<std::vector<std::string>> csv_rows;
    for (const SweepPoint& point : points) {
      std::vector<std::string> row = {point.x_label};
      for (const std::string& algorithm : algorithms) {
        row.push_back(cell_for(point, algorithm, which));
      }
      csv_rows.push_back(row);
      table.AddRow(std::move(row));
    }
    std::cout << "\n-- " << kMetricNames[which] << " --\n";
    table.Print(std::cout);
    MaybeDumpCsv(context, figure_name,
                 which == 0 ? "matching" : (which == 1 ? "time" : "memory"),
                 header, csv_rows);
  }
  std::cout.flush();
}

}  // namespace bench
}  // namespace ftoa
