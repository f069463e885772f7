// ftoa — command-line front end for the library, the entry point a
// downstream user scripts against.
//
//   ftoa generate synthetic --workers=5000 --tasks=5000 --out=day.csv
//   ftoa generate city --city=beijing --day=20 --scale=0.1 --out=day.csv
//   ftoa run --instance=day.csv --algorithm=polar-op [--strict] [--stream]
//   ftoa run --instance=day.csv --algorithm=polar-op --shards=4
//   ftoa serve --city=beijing --scale=0.05 --windows=36
//        ... --faults=flash@8-9:factor=4 --slo-p99-ms=5
//   ftoa algos
//   ftoa inspect --instance=day.csv
//
// `run` executes one algorithm over a saved instance and prints matching
// size, wall time, peak heap, and (with --strict) the physical
// re-verification breakdown; --stream drives the algorithm's streaming
// session arrival by arrival and reports per-decision latency percentiles;
// --shards=K routes arrivals through the sharded dispatcher (K per-shard
// sessions, merged assignment — see docs/sharded_dispatch.md) with
// --shard-threads (default auto: min(K, cores)), --router=NAME (the registered shard
// routers: grid | hash | load), --handoff-batch=N (events staged per
// batched queue handoff; 1 = per-event), and --reconcile (post-merge
// boundary reconciliation recovering cross-shard matches).
// --flow-engine=NAME fixes the min-cost-flow solver core used for guide
// generation (flow/flow_engine.h registry; auto picks by instance shape).
// `serve` runs the long-running serving harness (serve/service_harness)
// over the looped city trace: rolling eviction, live guide refresh with
// hot-swap and a degradation ladder, fault injection (--faults, the
// serve/fault_injector spec grammar), and SLO-driven admission control —
// printing one metrics line per window plus lifetime totals. `run` and
// `serve` reject an unknown flag, listing the valid set.
// `algos` lists every algorithm the registry knows. The guide for
// POLAR-family algorithms is derived from the instance's own realized
// counts unless --prediction points at a second instance file whose counts
// act as the forecast.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "flow/flow_engine.h"
#include "gen/city_trace.h"
#include "gen/synthetic.h"
#include "model/io.h"
#include "prediction/registry.h"
#include "serve/service_harness.h"
#include "sim/runner.h"
#include "sim/sharded_dispatcher.h"
#include "util/string_util.h"

namespace ftoa {
namespace {

/// Simple --key=value argument map.
class ArgMap {
 public:
  ArgMap(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg] = "true";
      } else {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto parsed = ParseDouble(it->second);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid number for --%s\n", key.c_str());
      std::exit(2);
    }
    return *parsed;
  }
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    const auto parsed = ParseInt(it->second);
    if (!parsed.ok()) {
      std::fprintf(stderr, "invalid integer for --%s\n", key.c_str());
      std::exit(2);
    }
    return *parsed;
  }
  /// GetInt for int-typed settings: a value outside int's range is a usage
  /// error, never a silent wrap.
  int GetInt32(const std::string& key, int fallback) const {
    const int64_t value = GetInt(key, fallback);
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
      std::fprintf(stderr, "invalid integer for --%s\n", key.c_str());
      std::exit(2);
    }
    return static_cast<int>(value);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  /// False, after printing "<command>: unknown flag --KEY (valid: ...)",
  /// when a flag outside `valid` was given. A mistyped flag silently
  /// ignored would run a different configuration than the one asked for.
  bool OnlyFlags(const char* command,
                 const std::vector<std::string>& valid) const {
    for (const auto& entry : values_) {
      if (std::find(valid.begin(), valid.end(), entry.first) != valid.end()) {
        continue;
      }
      std::string listed;
      for (const std::string& flag : valid) {
        if (!listed.empty()) listed += ", ";
        listed += "--" + flag;
      }
      std::fprintf(stderr, "%s: unknown flag --%s (valid: %s)\n", command,
                   entry.first.c_str(), listed.c_str());
      return false;
    }
    return true;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  ftoa generate synthetic [--workers=N] [--tasks=N] [--grid=N]\n"
      "       [--slots=N] [--dr=F] [--dw=F] [--seed=N] --out=FILE\n"
      "  ftoa generate city [--city=beijing|hangzhou] [--day=N]\n"
      "       [--scale=F] --out=FILE\n"
      "  ftoa run --instance=FILE --algorithm=NAME [--prediction=FILE]\n"
      "       [--strict] [--stream] [--dr=F] [--dw=F]\n"
      "       [--shards=K] [--shard-threads=N] [--router=%s]\n"
      "       [--handoff-batch=N] [--reconcile] [--approx-guide[=RATE]]\n"
      "       [--flow-engine=%s]\n"
      "       (NAME: %s)\n"
      "  ftoa serve [--city=beijing|hangzhou] [--scale=F] [--windows=N]\n"
      "       [--algorithm=NAME] [--shards=K] [--shard-threads=N]\n"
      "       [--windows-per-segment=N] [--refresh-period=N]\n"
      "       [--background-refresh] [--slo-p99-ms=F]\n"
      "       [--max-queue-depth=N] [--max-live-objects=N]\n"
      "       [--max-guide-age=N] [--faults=SPEC] [--fault-seed=N]\n"
      "       [--loop-days=N] [--reconcile]\n"
      "       [--refresh-mode=%s] [--refresh-predictor=%s]\n"
      "       [--analytical-slice=N]\n"
      "  ftoa algos\n"
      "  ftoa inspect --instance=FILE\n",
      Join(AllShardRouterNames(), "|").c_str(),
      Join(AllFlowEngineNames(), "|").c_str(),
      Join(AllAlgorithmNames(), " | ").c_str(),
      Join(AllGuideRefreshModeNames(), "|").c_str(),
      Join(AllPredictorNames(), "|").c_str());
  return 2;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string kind = argv[2];
  const ArgMap args(argc, argv, 3);
  const std::string out = args.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }

  Result<Instance> instance = Status::Unimplemented("unknown kind");
  if (kind == "synthetic") {
    SyntheticConfig config;
    config.num_workers = args.GetInt32("workers", 20000);
    config.num_tasks = args.GetInt32("tasks", 20000);
    config.grid_x = args.GetInt32("grid", 50);
    config.grid_y = config.grid_x;
    config.num_slots = args.GetInt32("slots", 48);
    config.task_duration = args.GetDouble("dr", 2.0);
    config.worker_duration = args.GetDouble("dw", 3.0);
    config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));
    instance = GenerateSyntheticInstance(config);
  } else if (kind == "city") {
    auto city = CityProfileByName(args.Get("city", "beijing"));
    if (!city.ok()) {
      std::fprintf(stderr, "generate: %s\n",
                   city.status().ToString().c_str());
      return 2;
    }
    CityProfile profile = std::move(city).value();
    LoopedTraceSource::Options scaled;
    scaled.scale = args.GetDouble("scale", 0.1);
    if (const Status bad = LoopedTraceSource::CheckOptions(profile, scaled);
        !bad.ok()) {
      std::fprintf(stderr, "generate: %s\n", bad.ToString().c_str());
      return 2;
    }
    profile.workers_per_day *= scaled.scale;
    profile.tasks_per_day *= scaled.scale;
    const CityTraceGenerator generator(profile);
    instance = generator.GenerateInstanceForDay(
        args.GetInt32("day", profile.history_days - 3));
  } else {
    return Usage();
  }
  if (!instance.ok()) {
    std::fprintf(stderr, "generate failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  const Status saved = SaveInstanceCsv(*instance, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu workers and %zu tasks to %s\n",
              instance->num_workers(), instance->num_tasks(), out.c_str());
  return 0;
}

int CmdRun(int argc, char** argv) {
  const ArgMap args(argc, argv, 2);
  if (!args.OnlyFlags("run", {"instance", "algorithm", "prediction",
                              "strict", "stream", "dr", "dw", "shards",
                              "shard-threads", "router", "handoff-batch",
                              "reconcile", "approx-guide", "flow-engine"})) {
    return 2;
  }
  const std::string path = args.Get("instance");
  const std::string algorithm_name = args.Get("algorithm", "polar-op");
  if (path.empty()) {
    std::fprintf(stderr, "run: --instance is required\n");
    return 2;
  }
  auto instance = LoadInstanceCsv(path);
  if (!instance.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }

  // Guide-based algorithms need a prediction.
  AlgorithmDeps deps;
  if (AlgorithmNeedsGuide(algorithm_name)) {
    PredictionMatrix prediction = PredictionMatrix::FromInstance(*instance);
    const std::string prediction_path = args.Get("prediction");
    if (!prediction_path.empty()) {
      auto forecast_instance = LoadInstanceCsv(prediction_path);
      if (!forecast_instance.ok()) {
        std::fprintf(stderr, "prediction load failed: %s\n",
                     forecast_instance.status().ToString().c_str());
        return 1;
      }
      prediction = PredictionMatrix::FromInstance(*forecast_instance);
    }
    GuideOptions options;
    options.engine = GuideOptions::Engine::kAuto;
    options.worker_duration =
        args.GetDouble("dw", instance->MaxWorkerDuration());
    options.task_duration =
        args.GetDouble("dr", instance->MaxTaskDuration());
    {
      const auto flow_engine =
          ParseFlowEngine(args.Get("flow-engine", "auto"));
      if (!flow_engine.ok()) {
        // NotFound carries the valid-name set (AllFlowEngineNames).
        std::fprintf(stderr, "run: %s\n",
                     flow_engine.status().ToString().c_str());
        return 2;
      }
      options.flow_engine = *flow_engine;
    }
    if (args.Has("approx-guide")) {
      // Bare --approx-guide takes the default half-rate sample; an
      // explicit =RATE must be numeric (Generate validates the (0, 1]
      // range and the engine restriction).
      options.approx_sample_rate =
          args.Get("approx-guide") == "true"
              ? 0.5
              : args.GetDouble("approx-guide", 0.5);
    }
    const GuideGenerator generator(instance->velocity(), options);
    auto generated = generator.Generate(prediction);
    if (!generated.ok()) {
      std::fprintf(stderr, "guide generation failed: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    if (options.approx_sample_rate < 1.0) {
      const ApproxGuideReport& report = generator.last_approx_report();
      std::printf("approx guide   %lld of %lld type pairs kept "
                  "(rate %.3f); matched-utility loss <= %lld\n",
                  static_cast<long long>(report.sampled_pairs),
                  static_cast<long long>(report.feasible_pairs),
                  options.approx_sample_rate,
                  static_cast<long long>(report.utility_loss_bound));
    }
    deps.guide = std::make_shared<const OfflineGuide>(
        std::move(generated).value());
  }

  auto algorithm = CreateAlgorithm(algorithm_name, deps);
  if (!algorithm.ok()) {
    // NotFound carries the valid-name set (AllAlgorithmNames).
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    return 2;
  }

  RunnerOptions options;
  options.strict_verification = args.Has("strict");
  options.streaming = args.Has("stream");
  options.num_shards = args.GetInt32("shards", 0);
  // Resolve 0 = auto exactly like the dispatcher will, so the summary
  // below reports the thread count actually used.
  options.shard_threads = ShardedDispatcher::ResolveNumThreads(
      args.GetInt32("shard-threads", 0), options.num_shards);
  const std::string router = args.Get("router", "grid");
  const auto router_kind = ParseShardRouterKind(router);
  if (!router_kind.ok()) {
    // NotFound carries the valid-name set (AllShardRouterNames).
    std::fprintf(stderr, "run: %s\n",
                 router_kind.status().ToString().c_str());
    return 2;
  }
  options.shard_router = *router_kind;
  options.shard_handoff_batch = args.GetInt32("handoff-batch", 0);
  options.shard_reconcile = args.Has("reconcile");
  const auto metrics = RunAlgorithm(algorithm->get(), *instance, options);
  if (!metrics.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 metrics.status().ToString().c_str());
    return 1;
  }
  std::printf("algorithm      %s\n", metrics->algorithm.c_str());
  std::printf("matching size  %lld  (of %zu workers / %zu tasks)\n",
              static_cast<long long>(metrics->matching_size),
              instance->num_workers(), instance->num_tasks());
  std::printf("time           %.4f s\n", metrics->elapsed_seconds);
  std::printf("peak heap      %s\n",
              FormatBytes(metrics->peak_memory_bytes).c_str());
  if (options.strict_verification) {
    std::printf("strict check   %lld feasible / %lld violations; %lld "
                "workers relocated\n",
                static_cast<long long>(metrics->strict_feasible_pairs),
                static_cast<long long>(metrics->strict_violations),
                static_cast<long long>(metrics->dispatched_workers));
  }
  if (options.num_shards >= 1) {
    std::printf("shards         %d (%s router, %d threads, handoff batch "
                "%s)\n",
                options.num_shards, router.c_str(), options.shard_threads,
                options.shard_handoff_batch > 0
                    ? std::to_string(options.shard_handoff_batch).c_str()
                    : "default");
    if (options.shard_reconcile) {
      std::printf("reconciled     %lld cross-shard pairs recovered\n",
                  static_cast<long long>(metrics->reconciled_pairs));
    }
  }
  if (options.streaming || options.num_shards >= 1) {
    std::printf("busy time      %.4f s in session decisions\n",
                metrics->busy_seconds);
    std::printf("decisions      %lld (streaming session)\n",
                static_cast<long long>(metrics->decisions));
    std::printf("latency        p50 %.0f ns / p99 %.0f ns / max %.0f ns "
                "per decision\n",
                metrics->decision_latency_p50_ns,
                metrics->decision_latency_p99_ns,
                metrics->decision_latency_max_ns);
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  const ArgMap args(argc, argv, 2);
  if (!args.OnlyFlags(
          "serve", {"city", "scale", "loop-days", "windows", "algorithm",
                    "shards", "shard-threads", "windows-per-segment",
                    "refresh-period", "background-refresh", "slo-p99-ms",
                    "max-queue-depth", "max-live-objects", "max-guide-age",
                    "faults", "fault-seed", "reconcile", "refresh-mode",
                    "refresh-predictor", "analytical-slice"})) {
    return 2;
  }

  auto city = CityProfileByName(args.Get("city", "beijing"));
  if (!city.ok()) {
    std::fprintf(stderr, "serve: %s\n", city.status().ToString().c_str());
    return 2;
  }
  const CityProfile profile = std::move(city).value();
  const int64_t windows =
      args.GetInt("windows", 3 * profile.slots_per_day);
  if (windows < 0) {
    std::fprintf(stderr, "serve: --windows must be nonnegative\n");
    return 2;
  }
  LoopedTraceSource::Options trace;
  trace.scale = args.GetDouble("scale", 0.05);
  trace.loop_days = args.GetInt32("loop-days", 0);
  if (const Status scale = LoopedTraceSource::CheckOptions(profile, trace);
      !scale.ok()) {
    std::fprintf(stderr, "serve: %s\n", scale.ToString().c_str());
    return 2;
  }

  ServiceOptions options;
  options.algorithm = args.Get("algorithm", "polar-op");
  options.num_shards = args.GetInt32("shards", 1);
  options.shard_threads = args.GetInt32("shard-threads", 1);
  options.windows_per_segment = args.GetInt32("windows-per-segment", 0);
  options.refresh_period_windows = args.GetInt32("refresh-period", 0);
  options.background_refresh = args.Has("background-refresh");
  options.slo_p99_ms = args.GetDouble("slo-p99-ms", 0.0);
  options.max_queue_depth = args.GetInt("max-queue-depth", 0);
  options.max_live_objects = args.GetInt("max-live-objects", 0);
  options.max_guide_age_windows = args.GetInt("max-guide-age", 0);
  options.faults = args.Get("faults");
  options.fault_seed = static_cast<uint64_t>(args.GetInt("fault-seed", 1));
  options.reconcile = args.Has("reconcile");
  {
    const auto mode =
        ParseGuideRefreshMode(args.Get("refresh-mode", "cold"));
    if (!mode.ok()) {
      std::fprintf(stderr, "serve: %s\n", mode.status().ToString().c_str());
      return 2;
    }
    options.guide.refresh_mode = *mode;
  }
  options.refresh_predictor = args.Get("refresh-predictor");
  options.analytical_slice = args.GetInt32("analytical-slice", 0);
  auto harness = ServiceHarness::Create(profile, trace, options);
  if (!harness.ok()) {
    // NotFound/InvalidArgument carry the valid algorithm / fault sets.
    std::fprintf(stderr, "serve: %s\n",
                 harness.status().ToString().c_str());
    return 2;
  }
  const Status run = (*harness)->RunWindows(windows);
  if (!run.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", run.ToString().c_str());
    return 1;
  }

  // p99 us/smp: sampled decision-latency p99 in microseconds (a decision
  // takes well under one, so milliseconds would print 0.000) and its sample
  // count (one decision in kLatencySamplePeriod is timed; see
  // docs/service_harness.md). rq/exam/c50/c99: retrieval-engine queries,
  // candidates examined, and per-query cells-visited percentiles of the
  // segment rotated at that window (zero between rotations, and for
  // algorithms that search no candidates spatially).
  // rfr ms/WC/reuse: solve wall time of the refresh cycle whose publish
  // landed at that window, warm (W), cold (C) or unchanged prediction
  // republished without a solve (U), and reused/total components ("-"
  // between publishes).
  std::printf(
      "window day  offered admitted shed drop match  p99 us   smp   live "
      "evict epoch age      rq    exam c50  c99   rfr ms WC   reuse "
      "flags\n");
  for (const WindowMetrics& w : (*harness)->windows()) {
    const bool published = w.refresh_ms > 0.0;
    char reuse[24] = "      -";
    if (published) {
      std::snprintf(reuse, sizeof(reuse), "%3lld/%-3lld",
                    static_cast<long long>(w.refresh_components_reused),
                    static_cast<long long>(w.refresh_components_total));
    }
    std::printf(
        "%6lld %3lld  %7lld %8lld %4lld %4lld %5lld %7.2f %5lld %6lld "
        "%5lld %5lld %3lld %7lld %7lld %3lld %4lld %8.2f %2s %7s %s%s\n",
        static_cast<long long>(w.window), static_cast<long long>(w.day),
        static_cast<long long>(w.offered),
        static_cast<long long>(w.admitted), static_cast<long long>(w.shed),
        static_cast<long long>(w.dropped_arrivals),
        static_cast<long long>(w.matched), w.p99_ms * 1e3,
        static_cast<long long>(w.latency_samples),
        static_cast<long long>(w.live_objects),
        static_cast<long long>(w.evicted),
        static_cast<long long>(w.guide_epoch),
        static_cast<long long>(w.guide_age_windows),
        static_cast<long long>(w.retrieval_queries),
        static_cast<long long>(w.candidates_examined),
        static_cast<long long>(w.cells_visited_p50),
        static_cast<long long>(w.cells_visited_p99), w.refresh_ms,
        !published             ? "-"
        : w.refresh_unchanged ? "U"
        : w.refresh_warm      ? "W"
                              : "C",
        reuse,
        w.degraded_greedy ? "D" : "", w.overloaded ? "O" : "");
  }
  const ServiceTotals& totals = (*harness)->totals();
  std::printf("served         %lld windows (%lld segments)\n",
              static_cast<long long>(totals.windows),
              static_cast<long long>(totals.segments));
  std::printf("admitted       %lld of %lld offered (%lld shed, %lld "
              "dropped in handoff)\n",
              static_cast<long long>(totals.admitted),
              static_cast<long long>(totals.offered),
              static_cast<long long>(totals.shed),
              static_cast<long long>(totals.dropped_arrivals));
  std::printf("matched        %lld pairs\n",
              static_cast<long long>(totals.matched));
  if (options.reconcile) {
    std::printf("reconciled     %lld of them recovered across shard "
                "borders\n",
                static_cast<long long>(totals.reconciled));
  }
  std::printf("evicted        %lld expired (store peak %lld, now %lld; "
              "%lld live)\n",
              static_cast<long long>(totals.evictions),
              static_cast<long long>(totals.store_peak),
              static_cast<long long>((*harness)->store_size()),
              static_cast<long long>((*harness)->live_objects()));
  const GuideRefresher::Stats& refresher = (*harness)->refresher_stats();
  std::printf("guide          epoch %lld, %lld publishes, %lld failed "
              "cycles, %lld hot-swaps adopted\n",
              static_cast<long long>((*harness)->guide_epoch()),
              static_cast<long long>(refresher.publishes),
              static_cast<long long>(refresher.failed_cycles),
              static_cast<long long>(totals.guide_swaps));
  std::printf("refresh        %lld warm / %lld cold / %lld unchanged "
              "publishes, %lld of %lld components reused, %.2f ms total "
              "solve\n",
              static_cast<long long>(totals.warm_refreshes),
              static_cast<long long>(totals.cold_refreshes),
              static_cast<long long>(totals.unchanged_refreshes),
              static_cast<long long>(totals.refresh_components_reused),
              static_cast<long long>(totals.refresh_components_reused +
                                     totals.refresh_components_solved),
              totals.refresh_ms);
  std::printf("day-ahead      %lld refreshes solved ahead on the helper "
              "thread, %.2f ms waited for them at their windows\n",
              static_cast<long long>(totals.prepared_refreshes),
              totals.refresh_wait_ms);
  return 0;
}

int CmdAlgos() {
  // One canonical name per line plus the display name benches print.
  for (const std::string& name : AllAlgorithmNames()) {
    std::printf("%-14s %s\n", name.c_str(),
                AlgorithmDisplayName(name).c_str());
  }
  return 0;
}

int CmdInspect(int argc, char** argv) {
  const ArgMap args(argc, argv, 2);
  const std::string path = args.Get("instance");
  if (path.empty()) {
    std::fprintf(stderr, "inspect: --instance is required\n");
    return 2;
  }
  auto instance = LoadInstanceCsv(path);
  if (!instance.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 instance.status().ToString().c_str());
    return 1;
  }
  const GridSpec& grid = instance->spacetime().grid();
  const SlotSpec& slots = instance->spacetime().slots();
  std::printf("region     %.1f x %.1f, %d x %d cells\n", grid.width(),
              grid.height(), grid.cells_x(), grid.cells_y());
  std::printf("horizon    %.1f over %d slots\n", slots.horizon(),
              slots.num_slots());
  std::printf("velocity   %.2f\n", instance->velocity());
  std::printf("workers    %zu (max Dw %.2f)\n", instance->num_workers(),
              instance->MaxWorkerDuration());
  std::printf("tasks      %zu (max Dr %.2f)\n", instance->num_tasks(),
              instance->MaxTaskDuration());
  const auto [workers, tasks] = instance->CountsPerType();
  int nonempty = 0;
  int peak = 0;
  for (size_t t = 0; t < workers.size(); ++t) {
    const int total = workers[t] + tasks[t];
    if (total > 0) ++nonempty;
    peak = std::max(peak, total);
  }
  std::printf("types      %d of %d occupied, busiest holds %d objects\n",
              nonempty, instance->spacetime().num_types(), peak);
  return 0;
}

}  // namespace
}  // namespace ftoa

int main(int argc, char** argv) {
  if (argc < 2) return ftoa::Usage();
  const std::string command = argv[1];
  if (command == "generate") return ftoa::CmdGenerate(argc, argv);
  if (command == "run") return ftoa::CmdRun(argc, argv);
  if (command == "serve") return ftoa::CmdServe(argc, argv);
  if (command == "algos") return ftoa::CmdAlgos();
  if (command == "inspect") return ftoa::CmdInspect(argc, argv);
  return ftoa::Usage();
}
