// Shared infrastructure for the figure/table benchmark binaries: scaled
// workload construction, the standard algorithm suite (SimpleGreedy, GR,
// POLAR, POLAR-OP, OPT — the five series of Figures 4-6), sweep execution,
// and paper-style table rendering (one table per measured axis: matching
// size, running time, memory).
//
// Every binary accepts:
//   --scale=<f>        object-count multiplier vs the paper's defaults
//                      (default 1.0 = the paper's instance sizes)
//   --no-opt           skip the offline OPT series (dominates running time)
//   --hybrid           add the POLAR-OP+G extension series
//   --tgoa             add the TGOA [26] predecessor series (slow at full
//                      scale: it recomputes a matching per arrival)
//   --prediction=<m>   expected | replicate | perfect (synthetic sweeps)
//   --csv=<dir>        additionally dump each table as CSV into <dir>
//   --threads=<n>      worker threads for sweep-point preparation (instance
//                      + prediction + guide generation, one point per
//                      thread) and the Monte-Carlo trials; the measured
//                      algorithm runs stay serial so Time/Memory remain
//                      paper-comparable

#ifndef FTOA_BENCH_HARNESS_H_
#define FTOA_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/guide_generator.h"
#include "core/prediction_matrix.h"
#include "gen/config.h"
#include "gen/synthetic.h"
#include "model/instance.h"
#include "sim/metrics.h"

namespace ftoa {
namespace bench {

/// Which prediction feeds the guide in synthetic sweeps.
enum class PredictionMode {
  kExpected,   ///< Expected per-type counts (i.i.d. model prior; default).
  kReplicate,  ///< Counts of an independent draw (sampling noise included).
  kPerfect,    ///< The realized counts themselves (oracle).
};

/// Parsed command-line options.
struct BenchContext {
  /// Default 1.0: the paper's instance sizes. Sub-type-density regimes
  /// (scale << 1 without shrinking the grid) change who wins — see
  /// EXPERIMENTS.md.
  double scale = 1.0;
  bool include_opt = true;
  bool include_hybrid = false;
  bool include_tgoa = false;
  PredictionMode prediction_mode = PredictionMode::kExpected;
  std::string csv_dir;
  /// OPT is skipped above this many objects per side even when enabled
  /// (its pruned bipartite graph stops fitting in laptop memory).
  int64_t opt_object_cap = 50000;
  /// Worker threads for sweep preparation and the Monte-Carlo trials
  /// (--threads). 1 = fully serial.
  int num_threads = 1;
};

/// Parses argv; unknown flags abort with a usage message.
BenchContext ParseArgs(int argc, char** argv);

/// The paper's default synthetic configuration (Section 6.1) with object
/// counts scaled by context.scale.
SyntheticConfig DefaultSyntheticConfig(const BenchContext& context);

/// A city profile scaled for benchmarking: object counts scale linearly
/// and the grid area scales along, keeping per-(slot,cell) density — and
/// with it the algorithms' relative behaviour — roughly constant.
CityProfile ScaledCityProfile(const CityProfile& base, double scale);

/// The serving loop's bootstrap prediction for day 0 of the Beijing
/// profile's looped trace at scale 0.5: the guide solve the refresh
/// benches time.
PredictionMatrix BeijingHalfDayPrediction();

/// Runs the full algorithm suite on one instance.
/// `prediction` feeds the guide for the POLAR family; guide construction is
/// offline preprocessing and excluded from the measured running time, as in
/// the paper ("we omit the running time of the offline preprocessing").
std::vector<RunMetrics> RunSuite(const Instance& instance,
                                 const PredictionMatrix& prediction,
                                 const GuideOptions& guide_options,
                                 const BenchContext& context);

/// As RunSuite, but with the guide already built (used by the parallel
/// sweep, which prepares guides off-thread and measures serially).
std::vector<RunMetrics> RunSuiteWithGuide(
    const Instance& instance,
    const std::shared_ptr<const OfflineGuide>& guide,
    const BenchContext& context);

/// One sweep point: an x-axis label plus the metrics of every algorithm.
struct SweepPoint {
  std::string x_label;
  std::vector<RunMetrics> metrics;
};

/// Generates the instance + independent-replicate prediction for `config`,
/// derives the guide options from it, and runs the suite. The label becomes
/// the row's x-axis value.
SweepPoint RunSyntheticPoint(const std::string& x_label,
                             const SyntheticConfig& config,
                             const BenchContext& context);

/// One labelled configuration of a sweep.
struct SweepConfig {
  std::string x_label;
  SyntheticConfig config;
};

/// Runs a whole synthetic sweep. With context.num_threads > 1 the
/// *preparation* of every point — instance generation, prediction, and
/// guide construction, i.e. the offline preprocessing the paper excludes
/// from its measurements — runs on a thread pool; the measured algorithm
/// runs then execute serially in sweep order, so Time/Memory numbers are
/// identical to the serial loop (the process-wide heap tracker and the
/// wall clock both need an otherwise-quiet process).
std::vector<SweepPoint> RunSyntheticSweep(
    const std::vector<SweepConfig>& configs, const BenchContext& context);

/// Prints the three paper-style tables (MatchingSize / Time(s) / Memory(MB))
/// for a figure and optionally dumps them as CSV.
void PrintFigure(const std::string& figure_name, const std::string& x_name,
                 const std::vector<SweepPoint>& points,
                 const BenchContext& context);

}  // namespace bench
}  // namespace ftoa

#endif  // FTOA_BENCH_HARNESS_H_
