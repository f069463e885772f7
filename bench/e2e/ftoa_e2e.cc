// ftoa_e2e: the end-to-end serving benchmark. It drives ServiceHarness, the
// library behind `ftoa serve`, through five city workloads in a closed loop:
// one thread calls RunWindows(windows_per_segment) back to back, and each
// call admits one segment's arrivals and returns with that segment's pairs
// committed. Every number is measured from outside the library: wall time
// around public calls, plus the counters the harness already exports. See
// README.md for the metric and workload catalogue.
//
//   ftoa_e2e --workload city-day [--seed N] [--seconds S] [--trace 0|1]
//            [--smoke] [--out FILE] [--trace-out FILE]
//            [--git-commit SHA] [--git-dirty 0|1]
//   ftoa_e2e --list
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the harness the
// same way and then a layer replay: the same days driven through each
// layer's public entry points in harness order, with a span around every
// call. The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. A failed correctness check prints
// "correct": false and exits 1.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/algorithm_registry.h"
#include "core/guide_generator.h"
#include "gen/config.h"
#include "gen/looped_trace.h"
#include "model/feasibility.h"
#include "serve/service_harness.h"
#include "sim/boundary_reconciler.h"
#include "sim/sharded_dispatcher.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftoa {
namespace {

// ------------------------------------------------------------ workloads --

/// One benchmark workload: a city, a scale and a serving configuration.
/// Day counts are tuned so a run at --seconds 15 takes about 15 s of
/// measured time on a 4-core x86 host; --seconds scales them linearly, so
/// a run always does the same work for the same arguments.
///
/// A run serves kCities cities one after another (each with its own seed,
/// see CitySeed) and reports over all of them: a city's seed moves its
/// hotspots and weather, which moves match rate and cost per object by
/// several percent, so one city per run would leave run-to-run spreads
/// wider than any useful bound.
struct Workload {
  const char* name;
  const char* city;  ///< "beijing" or "hangzhou".
  double scale;      ///< LoopedTraceSource::Options::scale.
  const char* algorithm;
  int shards;
  int shard_threads;
  bool reconcile;
  int windows_per_segment;  ///< 0 = one day.
  int refresh_period;       ///< Windows between refreshes; 0 = once a day.
  bool background_refresh;
  int analytical_slice;
  int days_per_city;  ///< Measured days per city at --seconds 15.
};

constexpr Workload kWorkloads[] = {
    // The default serving path at city scale; POLAR-OP issues no retrieval
    // queries and there is one shard, so retrieval and sim are bypassed.
    {"city-day", "beijing", 3.0, "polar-op", 1, 1, false, 0, 0, false, 0, 6},
    // One window per segment: the serve layer rotates 12 times a day, and
    // the day-boundary window waits on the inline guide solve (the tail).
    {"city-window", "beijing", 0.5, "polar-op", 1, 1, false, 1, 0, false, 0,
     26},
    // Dense enough for the retrieval engine; every arrival runs a top-k
    // query, so decisions dominate.
    {"greedy-dense", "hangzhou", 0.7, "simple-greedy", 1, 1, false, 0, 0,
     false, 0, 6},
    // The only workload that runs sim: 4 grid shards on 3 threads with
    // boundary reconciliation, and a background refresh on a 1-token slice
    // of the same pool.
    {"sharded-reconcile", "hangzhou", 0.7, "polar-op", 4, 3, true, 0, 3,
     true, 1, 5},
    // Three mid-day inline hot-swaps a day: guide generation dominates.
    {"refresh-heavy", "beijing", 0.5, "polar-op", 1, 1, false, 0, 3, false,
     0, 11},
};

constexpr double kSmokeScale = 0.05;
constexpr int kCities = 5;

/// Profile seed of city `city` of a run with seed `seed`. The stride keeps
/// the cities of runs with nearby seeds apart.
uint64_t CitySeed(uint64_t seed, int city) {
  return seed + 7919 * static_cast<uint64_t>(city);
}
/// Measured harness time after which a run stops early (at a commit
/// boundary), so a much slower build still ends within its time limit.
constexpr double kMeasureCapSeconds = 60.0;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

ServiceOptions ServingOptions(const Workload& workload) {
  ServiceOptions options;
  options.algorithm = workload.algorithm;
  options.num_shards = workload.shards;
  options.shard_threads = workload.shard_threads;
  options.reconcile = workload.reconcile;
  // The density of every workload is above the engine crossover, so this
  // is also what `ftoa serve` picks without --retrieval.
  options.retrieval = RetrievalMode::kEngine;
  options.windows_per_segment = workload.windows_per_segment;
  options.refresh_period_windows = workload.refresh_period;
  options.background_refresh = workload.background_refresh;
  options.analytical_slice = workload.analytical_slice;
  return options;
}

// ------------------------------------------------------------ arguments --

struct Args {
  std::string workload;
  bool has_seed = false;
  uint64_t seed = 0;
  double seconds = 15.0;
  bool trace = false;
  bool smoke = false;
  bool list = false;
  std::string out;
  std::string trace_out;
  std::string git_commit = "unknown";
  std::string git_dirty = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + key + "'";
      return false;
    }
    key = key.substr(2);
    if (key == "smoke" || key == "list") {
      (key == "smoke" ? args->smoke : args->list) = true;
      continue;
    }
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "--" + key + " needs a value";
      return false;
    }
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      args->has_seed = true;
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (!(args->seconds > 0.0)) end = nullptr;
    } else if (key == "trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1";
    } else if (key == "out") {
      args->out = value;
    } else if (key == "trace-out") {
      args->trace_out = value;
    } else if (key == "git-commit") {
      args->git_commit = value;
    } else if (key == "git-dirty") {
      args->git_dirty = value;
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
    if ((key == "seed" || key == "seconds") &&
        (end == nullptr || *end != '\0' || value.empty())) {
      *error = "bad value for --" + key + ": '" + value + "'";
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------- json --

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonStrings(const std::vector<std::string>& values) {
  std::string out;
  for (const std::string& value : values) {
    out += (out.empty() ? "" : ", ") + JsonString(value);
  }
  return "[" + out + "]";
}

/// Builds one JSON object member by member, in insertion order.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< Sample count or base, printed next to the value.
};

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
double Percentile(std::vector<double> sample, double pct) {
  if (sample.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sample.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(sample.begin(),
                   sample.begin() + static_cast<ptrdiff_t>(index),
                   sample.end());
  return sample[index];
}

double Median(const std::vector<double>& sample) {
  return Percentile(sample, 50.0);
}

double Ratio(double numerator, double denominator) {
  return denominator == 0.0 ? 0.0 : numerator / denominator;
}

/// Mergeable log-linear latency histogram: exact below 16, then 16 linear
/// sub-buckets per power of two (6.25% relative bucket width).
class LogLinearHistogram {
 public:
  static constexpr int kSubBuckets = 16;

  LogLinearHistogram() : counts_(64 * kSubBuckets, 0) {}

  void Record(int64_t value) {
    value = std::max<int64_t>(value, 0);
    ++counts_[Index(static_cast<uint64_t>(value))];
    ++total_;
    sum_ += value;
  }

  int64_t total() const { return total_; }
  int64_t sum() const { return sum_; }
  const std::vector<int64_t>& counts() const { return counts_; }

  /// Nearest-rank percentile, interpolated linearly inside the bucket that
  /// holds the rank (so it moves with the data, not in bucket steps).
  double Percentile(double pct) const {
    if (total_ == 0) return 0.0;
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(
               std::ceil(pct / 100.0 * static_cast<double>(total_))));
    int64_t seen = 0;
    for (size_t index = 0; index < counts_.size(); ++index) {
      const int64_t count = counts_[index];
      if (seen + count >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(count);
        return static_cast<double>(Lower(index)) +
               within * static_cast<double>(Width(index));
      }
      seen += count;
    }
    return static_cast<double>(Lower(counts_.size() - 1));
  }

  static size_t Index(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    const int exponent = 63 - __builtin_clzll(value);  // >= 4
    const uint64_t sub = (value >> (exponent - 4)) & (kSubBuckets - 1);
    return static_cast<size_t>(exponent - 3) * kSubBuckets +
           static_cast<size_t>(sub);
  }
  static uint64_t Lower(size_t index) {
    if (index < kSubBuckets) return index;
    const size_t exponent = index / kSubBuckets + 3;
    return (kSubBuckets + index % kSubBuckets) << (exponent - 4);
  }
  static uint64_t Width(size_t index) {
    return index < kSubBuckets ? 1 : uint64_t{1} << (index / kSubBuckets - 1);
  }

 private:
  std::vector<int64_t> counts_;
  int64_t total_ = 0;
  int64_t sum_ = 0;
};

// --------------------------------------------------------------- tracing --

/// Spans kept in memory and written as JSON at exit. Each span has a name,
/// start and end (ns since the tracer was made), its parent span (-1 at the
/// top), the city of the run it belongs to, and its segment (the segment's
/// first window).
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int32_t city;
    int64_t segment;
  };

  /// City of the spans that follow.
  void set_city(int32_t city) { city_ = city; }

  int32_t Begin(const char* name, int64_t segment) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, city_, segment});
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void End(int32_t id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    open_.pop_back();
  }
  int64_t NowNs() const { return clock_.ElapsedNanos(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration of spans named `name` whose segment is >= `from`.
  double TotalMs(const std::string& name, int64_t from) const {
    int64_t total = 0;
    for (const Span& span : spans_) {
      if (span.segment >= from && name == span.name) {
        total += span.end_ns - span.start_ns;
      }
    }
    return static_cast<double>(total) * 1e-6;
  }
  std::vector<double> DurationsMs(const std::string& name,
                                  int64_t from) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.segment >= from && name == span.name) {
        out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
      }
    }
    return out;
  }

 private:
  Stopwatch clock_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  int32_t city_ = 0;
};

/// Scoped span; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int64_t segment)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(name, segment)) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// ---------------------------------------------------- correctness checks --

/// Checks committed pairs. Stream ids are handed out in admission order, so
/// with nothing shed or dropped stream id k is the k-th arrival of the
/// looped trace; the checker regenerates those days from its own copy of
/// the trace source and keeps only the last few (an object lives at most a
/// day past its arrival).
///
/// Every pair is tested with CanServeAttrs on the objects' original
/// attributes under the algorithm's feasibility_policy(). POLAR-OP commits
/// along guide edges without an object-level test (the paper's guide
/// trust, PolarOptions::check_liveness off), so for a guided segment that
/// count is reported, and the pass/fail test is the guide's own type-level
/// predicate (OfflineGuide::Validate) on the types the session saw.
class PairChecker {
 public:
  PairChecker(const CityProfile& profile,
              const LoopedTraceSource::Options& trace,
              const ServiceOptions& options, FeasibilityPolicy policy,
              FeasibilityPolicy degraded_policy)
      : source_(profile, trace),
        spacetime_(source_.DaySpacetime()),
        velocity_(profile.velocity),
        worker_reach_(profile.worker_duration +
                      options.guide.representative_slack),
        task_reach_(profile.task_duration +
                    options.guide.representative_slack),
        guided_(AlgorithmNeedsGuide(options.algorithm)),
        policy_(policy),
        degraded_policy_(degraded_policy) {}

  /// Checks pairs[from..], all committed by segments of stream day `day`
  /// (`degraded`: on the ladder's greedy rung), and returns pairs.size(),
  /// the next `from`.
  size_t Check(const std::vector<std::pair<int64_t, int64_t>>& pairs,
               size_t from, int64_t day, bool degraded) {
    const double day_start = static_cast<double>(day) * source_.day_horizon();
    const bool guided = guided_ && !degraded;
    for (size_t i = from; i < pairs.size(); ++i) {
      const StreamArrival* worker = Find(pairs[i].first);
      const StreamArrival* task = Find(pairs[i].second);
      ++checked_;
      if (worker == nullptr || task == nullptr ||
          worker->kind != ObjectKind::kWorker ||
          task->kind != ObjectKind::kTask) {
        ++unknown_;
        continue;
      }
      for (const int64_t id : {pairs[i].first, pairs[i].second}) {
        if (matched_.size() <= static_cast<size_t>(id)) {
          matched_.resize(static_cast<size_t>(id) * 2 + 1024, 0);
        }
        if (matched_[static_cast<size_t>(id)]) ++duplicates_;
        matched_[static_cast<size_t>(id)] = 1;
      }
      // Original attributes, on the later object's day axis.
      const double origin =
          static_cast<double>(std::max(worker->day, task->day)) *
          source_.day_horizon();
      if (!CanServeAttrs(worker->location, worker->time - origin,
                         worker->duration, task->location,
                         task->time - origin, task->duration, velocity_,
                         degraded ? degraded_policy_ : policy_)) {
        ++(guided ? guide_trust_ : infeasible_);
      }
      if (guided &&
          !TypePairFeasible(spacetime_.TypeOf(worker->location,
                                              RelStart(*worker, day_start)),
                            spacetime_.TypeOf(task->location,
                                              RelStart(*task, day_start)))) {
        ++infeasible_;
      }
    }
    return pairs.size();
  }

  int64_t checked() const { return checked_; }
  bool ok() const {
    return unknown_ == 0 && duplicates_ == 0 && infeasible_ == 0;
  }
  std::string Summary() const {
    return std::to_string(checked_) + " pairs: " +
           std::to_string(infeasible_) + " infeasible, " +
           std::to_string(duplicates_) + " ids matched twice, " +
           std::to_string(unknown_) + " unknown ids, " +
           std::to_string(guide_trust_) +
           " guide-trust pairs object-infeasible";
  }

 private:
  struct Day {
    int64_t first_id;
    std::vector<StreamArrival> arrivals;
  };

  /// Start on the segment day's axis, as the harness re-times it: an
  /// earlier-day survivor enters at 0.
  static double RelStart(const StreamArrival& object, double day_start) {
    return std::max(0.0, object.time - day_start);
  }

  bool TypePairFeasible(TypeId worker_type, TypeId task_type) const {
    return CanServeAttrs(spacetime_.RepresentativeLocation(worker_type),
                         spacetime_.RepresentativeTime(worker_type),
                         worker_reach_,
                         spacetime_.RepresentativeLocation(task_type),
                         spacetime_.RepresentativeTime(task_type), task_reach_,
                         velocity_, FeasibilityPolicy::kDispatchAtWorkerStart);
  }

  const StreamArrival* Find(int64_t id) {
    while (id >= next_id_) {
      Result<std::vector<StreamArrival>> arrivals =
          source_.ArrivalsForDay(next_day_++);
      if (!arrivals.ok()) return nullptr;
      days_.push_back(Day{next_id_, std::move(arrivals).value()});
      next_id_ += static_cast<int64_t>(days_.back().arrivals.size());
      if (days_.size() > 3) days_.pop_front();
    }
    for (const Day& day : days_) {
      const int64_t offset = id - day.first_id;
      if (offset >= 0 &&
          offset < static_cast<int64_t>(day.arrivals.size())) {
        return &day.arrivals[static_cast<size_t>(offset)];
      }
    }
    return nullptr;
  }

  LoopedTraceSource source_;
  SpacetimeSpec spacetime_;
  double velocity_;
  double worker_reach_;
  double task_reach_;
  bool guided_;
  FeasibilityPolicy policy_;
  FeasibilityPolicy degraded_policy_;
  std::deque<Day> days_;
  int64_t next_day_ = 0;
  int64_t next_id_ = 0;
  std::vector<char> matched_;
  int64_t checked_ = 0;
  int64_t unknown_ = 0;
  int64_t duplicates_ = 0;
  int64_t infeasible_ = 0;
  int64_t guide_trust_ = 0;
};

Result<FeasibilityPolicy> PolicyOf(const std::string& algorithm) {
  AlgorithmDeps deps;
  deps.guide = std::make_shared<const OfflineGuide>();
  FTOA_ASSIGN_OR_RETURN(std::unique_ptr<OnlineAlgorithm> instance,
                        CreateAlgorithm(algorithm, deps));
  return instance->feasibility_policy();
}

// ------------------------------------------------------- harness runner --

/// The measured part of a run, summed over its cities.
struct RunTotals {
  std::vector<double> setup_s;    ///< One per city.
  std::vector<double> commit_ms;  ///< One per measured RunWindows call.
  double wall_ms = 0.0;           ///< Sum of commit_ms.
  double cpu_s = 0.0;             ///< Process CPU time over those calls.
  int64_t offered = 0;
  int64_t admitted = 0;
  int64_t failed = 0;  ///< Shed plus dropped arrivals.
  int64_t matched = 0;
  int64_t evicted_live = 0;
  int64_t evictions = 0;
  int64_t guide_swaps = 0;
  int64_t store_peak = 0;  ///< Largest over the cities.
  int64_t publishes = 0;
  int64_t failed_cycles = 0;
  int64_t timeouts = 0;
  double refresh_ms = 0.0;            ///< Sum of WindowMetrics::refresh_ms.
  std::vector<double> window_p99_us;  ///< Windows that fed decisions.
  bool stopped_early = false;
};

double CpuSeconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Serves one city: set-up (ServiceHarness::Create plus one warm-up day:
/// bootstrap guide solve, first trace day, allocator growth), then
/// `commits` measured RunWindows calls, each followed by the pair checks.
/// Adds the measured part to `totals` and returns the harness.
Result<std::unique_ptr<ServiceHarness>> RunCity(
    const CityProfile& profile, const LoopedTraceSource::Options& trace,
    const ServiceOptions& options, int64_t commits, Tracer* tracer,
    PairChecker* checker, RunTotals* totals) {
  const int64_t spd = profile.slots_per_day;
  const Stopwatch setup;
  std::unique_ptr<ServiceHarness> owned;
  {
    SpanScope span(tracer, "serve.create", 0);
    FTOA_ASSIGN_OR_RETURN(owned,
                          ServiceHarness::Create(profile, trace, options));
  }
  ServiceHarness& harness = *owned;
  {
    SpanScope span(tracer, "serve.warmup", 0);
    FTOA_RETURN_NOT_OK(harness.RunWindows(spd));
  }
  totals->setup_s.push_back(setup.ElapsedSeconds());
  const ServiceTotals warm = harness.totals();
  const GuideRefresher::Stats warm_refresher = harness.refresher_stats();

  // Each check covers the windows [first, first + count) just run, all of
  // one stream day.
  const auto check = [&](size_t from, int64_t first, int64_t count) {
    bool degraded = false;
    for (int64_t w = first; w < first + count; ++w) {
      degraded |= harness.windows()[static_cast<size_t>(w)].degraded_greedy;
    }
    return checker->Check(harness.matched_pairs(), from, first / spd,
                          degraded);
  };
  size_t checked = check(0, 0, spd);

  const int64_t per_commit = harness.options().windows_per_segment;
  for (int64_t commit = 0; commit < commits; ++commit) {
    if (totals->wall_ms > kMeasureCapSeconds * 1e3) {
      totals->stopped_early = true;
      break;
    }
    const int64_t first_window = spd + commit * per_commit;
    const double cpu_before = CpuSeconds();
    const Stopwatch clock;
    {
      SpanScope span(tracer, "serve.run_windows", first_window);
      FTOA_RETURN_NOT_OK(harness.RunWindows(per_commit));
    }
    totals->commit_ms.push_back(static_cast<double>(clock.ElapsedNanos()) *
                                1e-6);
    totals->wall_ms += totals->commit_ms.back();
    totals->cpu_s += CpuSeconds() - cpu_before;
    checked = check(checked, first_window, per_commit);
  }

  const ServiceTotals& end = harness.totals();
  const GuideRefresher::Stats& refresher = harness.refresher_stats();
  totals->offered += end.offered - warm.offered;
  totals->admitted += end.admitted - warm.admitted;
  totals->failed += end.shed - warm.shed + end.dropped_arrivals -
                    warm.dropped_arrivals;
  totals->matched += end.matched - warm.matched;
  totals->evicted_live += end.evicted_live;
  totals->evictions += end.evictions - warm.evictions;
  totals->guide_swaps += end.guide_swaps - warm.guide_swaps;
  totals->store_peak = std::max(totals->store_peak, end.store_peak);
  totals->publishes += refresher.publishes - warm_refresher.publishes;
  totals->failed_cycles +=
      refresher.failed_cycles - warm_refresher.failed_cycles;
  totals->timeouts += refresher.timeouts - warm_refresher.timeouts;
  for (size_t w = static_cast<size_t>(spd); w < harness.windows().size();
       ++w) {
    const WindowMetrics& row = harness.windows()[w];
    totals->refresh_ms += row.refresh_ms;
    if (row.decisions > 0) totals->window_p99_us.push_back(row.p99_ms * 1e3);
  }
  return owned;
}

int64_t PeakRssKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return 0;
}

// -------------------------------------------------------- layer replay --

/// Per-layer counters the replay gathers over the measured segments.
struct LayerStats {
  LogLinearHistogram decide_ns;  ///< Every OnWorker/OnTask call.
  int64_t guide_node_level_calls = 0;
  int64_t guide_pairs = 0;
  int64_t guide_pairs_reused = 0;
  int64_t ignored = 0;
  RetrievalStats retrieval;
  int64_t reconcile_boundary_objects = 0;
  int64_t reconcile_recovered_pairs = 0;
  RetrievalStats reconcile_retrieval;
  std::vector<double> shard_busy_s;
  int64_t segments = 0;
  int64_t days = 0;
};

/// Drives the same days as the harness through the layers' public entry
/// points, in the harness's order: trace generation, guide generation on
/// the harness's prediction, universe assembly with carryover, Instance,
/// CreateAlgorithm, ShardedDispatcher::StartSession, the arrivals with
/// AdvanceTo and SwapGuide at the harness's windows, Finish with reconcile
/// off, then ReconcileShardBoundary. Guides are solved inline at the
/// windows where the harness's guide epoch changed, from the prediction of
/// the window the harness solved for, so a background-refresh run is
/// replayed with its own publish schedule.
class LayerReplay {
 public:
  LayerReplay(const CityProfile& profile,
              const LoopedTraceSource::Options& trace,
              const ServiceOptions& options,
              const std::vector<WindowMetrics>& harness_windows,
              Tracer* tracer, LayerStats* stats)
      : source_(profile, trace),
        options_(options),
        generator_(profile.velocity, options.guide),
        tracer_(tracer),
        stats_(stats),
        spd_(profile.slots_per_day),
        spacetime_(source_.DaySpacetime()) {
    publish_from_.assign(harness_windows.size(), -1);
    int64_t epoch = 0;
    for (size_t w = 0; w < harness_windows.size(); ++w) {
      const WindowMetrics& row = harness_windows[w];
      if (row.guide_epoch != epoch) {
        publish_from_[w] = row.window - row.guide_age_windows;
        epoch = row.guide_epoch;
      }
    }
    const int threads = ShardedDispatcher::ResolveNumThreads(
        options_.shard_threads, options_.num_shards);
    if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
  }

  /// Replays every window the harness ran; segments starting at or after
  /// window `measured_from` feed LayerStats.
  Status Run(int64_t measured_from) {
    const int64_t windows = static_cast<int64_t>(publish_from_.size());
    int64_t window = 0;
    while (window < windows) {
      const int64_t day = window / spd_;
      const int64_t end =
          std::min(window + options_.windows_per_segment, (day + 1) * spd_);
      measuring_ = window >= measured_from;
      SpanScope span(tracer_, "replay.segment", window);
      FTOA_RETURN_NOT_OK(RunSegment(window, end));
      if (measuring_) ++stats_->segments;
      window = end;
    }
    return Status::OK();
  }

  int64_t matched() const { return matched_pairs_; }

 private:
  /// An admitted object with its original attributes (absolute time axis).
  struct Object {
    int64_t stream_id;
    ObjectKind kind;
    Point location;
    double abs_start;
    double duration;
  };
  /// A universe member on the segment day's relative axis.
  struct Member {
    double rel_time;
    double duration;
    const Object* object;
  };

  /// The universe of the segment starting at window `begin`: earlier
  /// universes' unmatched objects still live at the segment start, re-timed
  /// to this day (a previous-day survivor enters at 0 with its remaining
  /// patience), plus the admissions, in session arrival order.
  std::vector<Member> Assemble(int64_t begin,
                               const std::vector<Object>& fresh) const {
    const double day_start =
        static_cast<double>(begin / spd_) * source_.day_horizon();
    const double now = static_cast<double>(begin);
    std::vector<Member> universe;
    for (const std::vector<Object>* list : {&carryover_, &fresh}) {
      for (const Object& object : *list) {
        if (object.abs_start + object.duration <= now) continue;
        double rel = object.abs_start - day_start;
        double duration = object.duration;
        if (rel < 0.0) {
          duration = object.abs_start + object.duration - day_start;
          rel = 0.0;
        }
        if (duration <= 0.0) continue;
        universe.push_back(Member{rel, duration, &object});
      }
    }
    std::sort(universe.begin(), universe.end(),
              [](const Member& a, const Member& b) {
                if (a.rel_time != b.rel_time) return a.rel_time < b.rel_time;
                if (a.object->kind != b.object->kind) {
                  return a.object->kind == ObjectKind::kWorker;
                }
                return a.object->stream_id < b.object->stream_id;
              });
    return universe;
  }

  Status RunSegment(int64_t begin, int64_t end) {
    const int64_t day = begin / spd_;
    std::shared_ptr<const OfflineGuide> start_guide;
    std::vector<std::pair<int64_t, std::shared_ptr<const OfflineGuide>>> swaps;
    std::vector<Object> fresh;
    for (int64_t window = begin; window < end; ++window) {
      if (window % spd_ == 0) FTOA_RETURN_NOT_OK(StartDay(day, begin));
      const int64_t from = publish_from_[static_cast<size_t>(window)];
      if (from >= 0) {
        FTOA_RETURN_NOT_OK(Publish(from, begin));
        if (window != begin) swaps.emplace_back(window, guide_);
      }
      if (window == begin) start_guide = guide_;
      SpanScope span(tracer_, "serve.admit", begin);
      Admit(window, &fresh);
    }

    std::vector<Member> universe;
    {
      SpanScope span(tracer_, "serve.assemble", begin);
      universe = Assemble(begin, fresh);
    }

    std::vector<int32_t> local_id(universe.size(), -1);
    std::vector<int64_t> worker_stream, task_stream;
    std::unique_ptr<Instance> instance;
    {
      SpanScope span(tracer_, "model.instance", begin);
      std::vector<Worker> workers;
      std::vector<Task> tasks;
      for (size_t i = 0; i < universe.size(); ++i) {
        const Member& member = universe[i];
        if (member.object->kind == ObjectKind::kWorker) {
          local_id[i] = static_cast<int32_t>(workers.size());
          workers.push_back(Worker{-1, member.object->location,
                                   member.rel_time, member.duration});
          worker_stream.push_back(member.object->stream_id);
        } else {
          local_id[i] = static_cast<int32_t>(tasks.size());
          tasks.push_back(Task{-1, member.object->location, member.rel_time,
                               member.duration});
          task_stream.push_back(member.object->stream_id);
        }
      }
      instance = std::make_unique<Instance>(
          spacetime_, source_.generator().profile().velocity,
          std::move(workers), std::move(tasks));
    }

    std::unique_ptr<OnlineAlgorithm> algorithm;
    std::unique_ptr<ShardedDispatcher> dispatcher;
    std::unique_ptr<ShardedSession> session;
    {
      SpanScope span(tracer_, "sim.session_open", begin);
      // The harness's degradation ladder: no guide yet means greedy.
      const bool degraded =
          AlgorithmNeedsGuide(options_.algorithm) && start_guide == nullptr;
      AlgorithmDeps deps;
      deps.guide = start_guide;
      deps.retrieval = options_.retrieval;
      FTOA_ASSIGN_OR_RETURN(
          algorithm,
          CreateAlgorithm(degraded ? "simple-greedy" : options_.algorithm,
                          deps));
      ShardedOptions sharded;
      sharded.num_shards = options_.num_shards;
      sharded.num_threads = options_.shard_threads;
      sharded.external_pool = pool_.get();
      dispatcher =
          std::make_unique<ShardedDispatcher>(algorithm.get(), sharded);
      session = dispatcher->StartSession(*instance);
      session->set_collect_dispatches(false);
    }

    size_t cursor = 0;
    const auto feed_until = [&](double rel_bound) {
      SpanScope span(tracer_, "core.feed", begin);
      for (; cursor < universe.size() && universe[cursor].rel_time < rel_bound;
           ++cursor) {
        const Member& member = universe[cursor];
        const int64_t before = tracer_->NowNs();
        if (member.object->kind == ObjectKind::kWorker) {
          session->OnWorker(local_id[cursor], member.rel_time);
        } else {
          session->OnTask(local_id[cursor], member.rel_time);
        }
        if (measuring_) stats_->decide_ns.Record(tracer_->NowNs() - before);
      }
    };
    size_t swap_cursor = 0;
    for (int64_t window = begin; window < end; ++window) {
      const double rel_start = static_cast<double>(window % spd_);
      if (window == begin) feed_until(rel_start);
      {
        SpanScope span(tracer_, "sim.advance", begin);
        session->AdvanceTo(rel_start);
      }
      while (swap_cursor < swaps.size() && swaps[swap_cursor].first <= window) {
        SpanScope span(tracer_, "sim.swap", begin);
        session->SwapGuide(swaps[swap_cursor].second);
        ++swap_cursor;
      }
      feed_until(rel_start + 1.0);
    }

    Result<ShardedRunResult> finished = Status::Internal("not finished");
    {
      SpanScope span(tracer_, "sim.finish", begin);
      finished = session->Finish();
    }
    FTOA_RETURN_NOT_OK(finished.status());
    ShardedRunResult& result = finished.value();
    ReconcileStats reconcile;
    if (options_.reconcile || options_.num_shards == 1) {
      // One shard has no border, so there the pass returns at once; it is
      // still called so sim.reconcile_ms is measured on every workload.
      SpanScope span(tracer_, "sim.reconcile", begin);
      ReconcileOptions reconcile_options;
      reconcile_options.policy = algorithm->feasibility_policy();
      reconcile_options.guide = algorithm->guide();
      FTOA_ASSIGN_OR_RETURN(
          reconcile,
          ReconcileShardBoundary(*instance, session->router(),
                                 reconcile_options, &result.assignment));
    }

    {
      SpanScope span(tracer_, "serve.fold", begin);
      for (const MatchedPair& pair : result.assignment.pairs()) {
        const int64_t worker = worker_stream[static_cast<size_t>(pair.worker)];
        const int64_t task = task_stream[static_cast<size_t>(pair.task)];
        ++matched_pairs_;
        for (const int64_t id : {worker, task}) {
          if (matched_.size() <= static_cast<size_t>(id)) {
            matched_.resize(static_cast<size_t>(id) * 2 + 1024, 0);
          }
          matched_[static_cast<size_t>(id)] = 1;
        }
      }
      std::vector<Object> next;
      for (const Member& member : universe) {
        const size_t id = static_cast<size_t>(member.object->stream_id);
        if (id >= matched_.size() || !matched_[id]) {
          next.push_back(*member.object);
        }
      }
      carryover_ = std::move(next);
    }

    if (measuring_) {
      stats_->ignored +=
          result.trace.ignored_workers + result.trace.ignored_tasks;
      stats_->retrieval.Absorb(result.trace.retrieval);
      stats_->reconcile_boundary_objects +=
          reconcile.boundary_workers + reconcile.boundary_tasks;
      stats_->reconcile_recovered_pairs += reconcile.recovered_pairs;
      stats_->reconcile_retrieval.Absorb(reconcile.retrieval);
      stats_->shard_busy_s.resize(result.shard_metrics.size(), 0.0);
      for (size_t shard = 0; shard < result.shard_metrics.size(); ++shard) {
        stats_->shard_busy_s[shard] += result.shard_metrics[shard].busy_seconds;
      }
    }
    return Status::OK();
  }

  Status StartDay(int64_t day, int64_t segment) {
    SpanScope span(tracer_, "gen.arrivals", segment);
    FTOA_ASSIGN_OR_RETURN(day_arrivals_, source_.ArrivalsForDay(day));
    cursor_ = 0;
    if (day > 0) {
      realized_workers_.push_back(day_workers_);
      realized_tasks_.push_back(day_tasks_);
    }
    day_workers_.assign(static_cast<size_t>(spacetime_.num_types()), 0);
    day_tasks_.assign(static_cast<size_t>(spacetime_.num_types()), 0);
    if (measuring_) ++stats_->days;
    return Status::OK();
  }

  /// The harness's refresh prediction for `window`: the previous day's
  /// realized per-type counts, or the generator's history on day 0.
  PredictionMatrix PredictionFor(int64_t window) const {
    PredictionMatrix prediction(spacetime_);
    const int64_t day = window / spd_;
    std::vector<int> workers, tasks;
    if (day == 0) {
      const int source_day = static_cast<int>(day % source_.loop_days());
      workers = source_.generator().SampleDayCounts(DemandSide::kWorkers,
                                                    source_day);
      tasks = source_.generator().SampleDayCounts(DemandSide::kTasks,
                                                  source_day);
    } else {
      const size_t prev = static_cast<size_t>(day - 1);
      workers.assign(realized_workers_[prev].begin(),
                     realized_workers_[prev].end());
      tasks.assign(realized_tasks_[prev].begin(), realized_tasks_[prev].end());
    }
    for (int type = 0; type < spacetime_.num_types(); ++type) {
      prediction.set_workers_at(type, workers[static_cast<size_t>(type)]);
      prediction.set_tasks_at(type, tasks[static_cast<size_t>(type)]);
    }
    return prediction;
  }

  Status Publish(int64_t from_window, int64_t segment) {
    const PredictionMatrix prediction = PredictionFor(from_window);
    Result<OfflineGuide> guide = Status::Internal("not generated");
    {
      SpanScope span(tracer_, "core.guide", segment);
      guide = generator_.Generate(prediction);
    }
    FTOA_RETURN_NOT_OK(guide.status());
    guide_ = std::make_shared<const OfflineGuide>(std::move(guide).value());
    if (measuring_) {
      const GuideRefreshStats& refresh = generator_.last_refresh_stats();
      if (refresh.components_total == 0) ++stats_->guide_node_level_calls;
      stats_->guide_pairs += refresh.pairs_total;
      stats_->guide_pairs_reused += refresh.pairs_reused;
    }
    return Status::OK();
  }

  void Admit(int64_t window, std::vector<Object>* fresh) {
    const double window_end = static_cast<double>(window) + 1.0;
    const double day_start =
        static_cast<double>(window / spd_) * source_.day_horizon();
    for (; cursor_ < day_arrivals_.size() &&
           day_arrivals_[cursor_].time < window_end;
         ++cursor_) {
      const StreamArrival& arrival = day_arrivals_[cursor_];
      fresh->push_back(Object{next_stream_id_++, arrival.kind,
                              arrival.location, arrival.time,
                              arrival.duration});
      const size_t type = static_cast<size_t>(
          spacetime_.TypeOf(arrival.location, arrival.time - day_start));
      ++(arrival.kind == ObjectKind::kWorker ? day_workers_
                                             : day_tasks_)[type];
    }
  }

  LoopedTraceSource source_;
  ServiceOptions options_;
  GuideGenerator generator_;
  Tracer* tracer_;
  LayerStats* stats_;
  int64_t spd_;
  SpacetimeSpec spacetime_;
  std::unique_ptr<ThreadPool> pool_;
  /// Per harness window: the window whose prediction the guide published
  /// there was solved for, or -1 when no guide was published.
  std::vector<int64_t> publish_from_;
  bool measuring_ = false;

  std::shared_ptr<const OfflineGuide> guide_;
  std::vector<StreamArrival> day_arrivals_;
  size_t cursor_ = 0;
  int64_t next_stream_id_ = 0;
  std::vector<int32_t> day_workers_, day_tasks_;
  std::vector<std::vector<int32_t>> realized_workers_, realized_tasks_;
  std::vector<Object> carryover_;
  std::vector<char> matched_;
  int64_t matched_pairs_ = 0;
};

// ---------------------------------------------------------------- report --

std::string UtcNow() {
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  gmtime_r(&now, &utc);
  char buffer[32];
  std::strftime(buffer, sizeof(buffer), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buffer;
}

std::string ContextJson(const Args& args, const Workload& workload,
                        uint64_t seed, double scale, int64_t days_per_city) {
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  const bool optimize = true;
#else
  const bool optimize = false;
#endif
  JsonObject params;
  params.Str("city", workload.city)
      .Num("scale", scale)
      .Str("algorithm", workload.algorithm)
      .Int("shards", workload.shards)
      .Int("shard_threads", workload.shard_threads)
      .Bool("reconcile", workload.reconcile)
      .Int("windows_per_segment", workload.windows_per_segment)
      .Int("refresh_period", workload.refresh_period)
      .Bool("background_refresh", workload.background_refresh)
      .Int("analytical_slice", workload.analytical_slice)
      .Str("retrieval", "engine")
      .Int("cities", kCities)
      .Int("days_per_city", days_per_city)
      .Num("seconds", args.seconds)
      .Bool("smoke", args.smoke);
  JsonObject context;
  context.Str("git_commit", args.git_commit)
      .Str("git_dirty", args.git_dirty)
      .Str("build_type", FTOA_E2E_BUILD_TYPE)
      .Str("compiler", __VERSION__)
      .Bool("ndebug", ndebug)
      .Bool("optimize", optimize)
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Int("seed", static_cast<int64_t>(seed))
      .Raw("workload", params.str())
      .Str("utc", UtcNow());
  return context.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject object;
  for (const Metric& metric : metrics) {
    object.Raw(metric.name, JsonObject()
                                .Num("value", metric.value)
                                .Str("unit", metric.unit)
                                .str());
  }
  return object.str();
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %14.6g %-9s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.note.c_str());
  }
}

std::string Count(const char* what, int64_t n) {
  return "(" + std::string(what) + " n=" + std::to_string(n) + ")";
}

/// The highest nearest-rank percentile with at least 50 samples beyond it
/// (the median when there are fewer than 100). Over ten runs of one seed
/// of city-window, p99 (ten beyond) spread 9.8% and this tail 5.1%.
double TailPercentile(size_t n) {
  return std::max(50.0, 100.0 * (1.0 - 50.0 / static_cast<double>(n)));
}

std::vector<Metric> EndToEndMetrics(const RunTotals& totals) {
  const double admitted = static_cast<double>(totals.admitted);
  const int64_t commits = static_cast<int64_t>(totals.commit_ms.size());
  const double tail = TailPercentile(totals.commit_ms.size());
  char tail_note[64];
  std::snprintf(tail_note, sizeof(tail_note), "(p%.4g of commits n=%lld)",
                tail, static_cast<long long>(commits));
  return {
      {"objects_per_s", Ratio(admitted, totals.wall_ms * 1e-3), "obj/s",
       "(" + JsonNumber(admitted) + " objects over " +
           std::to_string(commits) + " commits)"},
      {"commit_p50_ms", Percentile(totals.commit_ms, 50.0), "ms",
       Count("commits", commits)},
      {"commit_tail_ms", Percentile(totals.commit_ms, tail), "ms", tail_note},
      {"match_rate", Ratio(2.0 * static_cast<double>(totals.matched), admitted),
       "fraction", "(" + std::to_string(totals.matched) + " pairs)"},
      {"setup_s", Median(totals.setup_s), "s",
       Count("set-ups, median", static_cast<int64_t>(totals.setup_s.size()))},
      {"peak_rss_mb", static_cast<double>(PeakRssKb()) / 1024.0, "MB",
       "(VmHWM)"},
  };
}

std::vector<Metric> LayerMetrics(const RunTotals& totals,
                                 const Tracer& tracer,
                                 const LayerStats& stats,
                                 int64_t measured_from, int64_t matched_delta,
                                 int64_t num_shards) {
  const double harness_ms = totals.wall_ms;

  const auto total = [&](const char* name) {
    return tracer.TotalMs(name, measured_from);
  };
  const double replay_ms = total("replay.segment");
  const double decide_ms = static_cast<double>(stats.decide_ns.sum()) * 1e-6;
  const double layer_ms = total("gen.arrivals") + total("core.guide") +
                          total("model.instance") + total("sim.session_open") +
                          decide_ms + total("sim.advance") + total("sim.swap") +
                          total("sim.finish") + total("sim.reconcile");
  double covered_ms = 0.0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.segment < measured_from || span.parent < 0) continue;
    if (std::string("replay.segment") ==
        tracer.spans()[static_cast<size_t>(span.parent)].name) {
      covered_ms += static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
    }
  }

  double busy_max = 0.0, busy_sum = 0.0;
  for (const double busy : stats.shard_busy_s) {
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  const double segments =
      static_cast<double>(std::max<int64_t>(1, stats.segments));
  const double decisions = static_cast<double>(stats.decide_ns.total());
  const double queries = static_cast<double>(stats.retrieval.queries);
  const double reconcile_queries =
      static_cast<double>(stats.reconcile_retrieval.queries);
  const std::vector<double> guide_ms =
      tracer.DurationsMs("core.guide", measured_from);
  const int64_t guide_calls = static_cast<int64_t>(guide_ms.size());
  const std::string per_segment = Count("segments", stats.segments);
  const std::string per_decision = Count("decisions", stats.decide_ns.total());
  const std::string per_query = Count("queries", stats.retrieval.queries);
  const std::string per_guide = Count("guide calls", guide_calls);

  return {
      {"serve.refresh_share", Ratio(totals.refresh_ms, harness_ms), "fraction",
       "(of harness wall)"},
      {"serve.residual_share", 1.0 - Ratio(layer_ms, harness_ms), "fraction",
       "(harness wall not spent in layer calls)"},
      {"serve.decision_p99_us", Median(totals.window_p99_us), "us",
       Count("windows, median of per-window p99",
             static_cast<int64_t>(totals.window_p99_us.size()))},
      {"serve.store_peak", static_cast<double>(totals.store_peak), "count", ""},
      {"serve.evictions", static_cast<double>(totals.evictions), "count", ""},
      {"serve.guide_swaps", static_cast<double>(totals.guide_swaps), "count",
       ""},
      {"serve.refresh_publishes", static_cast<double>(totals.publishes),
       "count", ""},
      {"serve.refresh_failed_cycles",
       static_cast<double>(totals.failed_cycles), "count", ""},
      {"serve.refresh_timeouts", static_cast<double>(totals.timeouts), "count",
       ""},
      {"sim.session_open_ms", total("sim.session_open") / segments, "ms",
       per_segment},
      {"sim.advance_ms", total("sim.advance") / segments, "ms", per_segment},
      {"sim.finish_ms", total("sim.finish") / segments, "ms", per_segment},
      {"sim.reconcile_ms", total("sim.reconcile") / segments, "ms",
       per_segment},
      {"sim.reconcile_boundary_objects",
       static_cast<double>(stats.reconcile_boundary_objects), "count", ""},
      {"sim.reconcile_recovered_pairs",
       static_cast<double>(stats.reconcile_recovered_pairs), "count", ""},
      {"sim.reconcile_examined_per_query",
       Ratio(static_cast<double>(stats.reconcile_retrieval.candidates_examined),
             reconcile_queries),
       "count", Count("queries", stats.reconcile_retrieval.queries)},
      {"sim.shard_busy_skew",
       Ratio(busy_max, busy_sum / static_cast<double>(num_shards)), "ratio",
       "(max / mean shard busy)"},
      {"sim.cpu_per_wall", Ratio(totals.cpu_s, harness_ms * 1e-3), "ratio",
       "(process CPU / harness wall)"},
      {"core.guide_ms_p50", Median(guide_ms), "ms", per_guide},
      {"core.guide_ms_max", Percentile(guide_ms, 100.0), "ms", per_guide},
      {"core.guide_calls", static_cast<double>(guide_calls), "count", ""},
      {"core.guide_node_level_calls",
       static_cast<double>(stats.guide_node_level_calls), "count", ""},
      {"core.guide_pairs",
       Ratio(static_cast<double>(stats.guide_pairs),
             static_cast<double>(guide_calls)),
       "count", "(type pairs per call)"},
      {"core.guide_pairs_reused", static_cast<double>(stats.guide_pairs_reused),
       "count", ""},
      {"core.decide_ns_p50", stats.decide_ns.Percentile(50.0), "ns",
       per_decision},
      {"core.decide_ns_p99", stats.decide_ns.Percentile(99.0), "ns",
       per_decision},
      {"core.decide_ns_p999", stats.decide_ns.Percentile(99.9), "ns",
       per_decision},
      {"core.decide_share", Ratio(decide_ms, replay_ms), "fraction",
       "(of replay wall)"},
      {"core.ignored_frac",
       Ratio(static_cast<double>(stats.ignored), decisions), "fraction",
       per_decision},
      {"retrieval.queries_per_decision", Ratio(queries, decisions), "count",
       per_decision},
      {"retrieval.examined_per_query",
       Ratio(static_cast<double>(stats.retrieval.candidates_examined), queries),
       "count", per_query},
      {"retrieval.pruned_per_query",
       Ratio(static_cast<double>(stats.retrieval.candidates_pruned), queries),
       "count", per_query},
      {"retrieval.cells_p50",
       static_cast<double>(stats.retrieval.CellsVisitedPercentile(0.50)),
       "count", per_query},
      {"retrieval.cells_p99",
       static_cast<double>(stats.retrieval.CellsVisitedPercentile(0.99)),
       "count", per_query},
      {"gen.arrivals_ms_per_day",
       Ratio(total("gen.arrivals"), static_cast<double>(stats.days)), "ms",
       Count("days", stats.days)},
      {"model.instance_ms", total("model.instance") / segments, "ms",
       per_segment},
      {"trace.replay_cover", Ratio(covered_ms, replay_ms), "fraction",
       "(layer spans / replay segment spans)"},
      {"trace.replay_matched_delta", static_cast<double>(matched_delta),
       "count", "(replay - harness pairs)"},
      {"trace.replay_to_harness", Ratio(replay_ms, harness_ms), "ratio",
       "(replay wall / harness wall)"},
  };
}

/// Per span name over the measured segments: count, total and self time
/// (duration minus the part its child spans cover).
std::string LayerTableJson(const Tracer& tracer, int64_t measured_from) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<std::string> names;
  for (const Tracer::Span& span : spans) {
    if (std::find(names.begin(), names.end(), span.name) == names.end()) {
      names.push_back(span.name);
    }
  }
  JsonObject table;
  for (const std::string& name : names) {
    int64_t count = 0, total_ns = 0, self_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].segment < measured_from || name != spans[i].name) continue;
      ++count;
      total_ns += spans[i].end_ns - spans[i].start_ns;
      self_ns += spans[i].end_ns - spans[i].start_ns - child_ns[i];
    }
    table.Raw(name, JsonObject()
                        .Int("count", count)
                        .Num("total_ms", static_cast<double>(total_ns) * 1e-6)
                        .Num("self_ms", static_cast<double>(self_ns) * 1e-6)
                        .str());
  }
  return table.str();
}

bool WriteTraceFile(const std::string& path, const std::string& context,
                    const Tracer& tracer, const LayerStats& stats) {
  std::ofstream out(path);
  out << "{\"context\": " << context << ",\n \"spans\": [\n";
  const std::vector<Tracer::Span>& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& span = spans[i];
    out << "  {\"name\": \"" << span.name << "\", \"start_ns\": "
        << span.start_ns << ", \"end_ns\": " << span.end_ns
        << ", \"parent\": " << span.parent << ", \"city\": " << span.city
        << ", \"segment\": " << span.segment
        << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << " ],\n \"histograms\": {\"core.decide_ns\": {\"sub_buckets\": "
      << LogLinearHistogram::kSubBuckets
      << ", \"sum\": " << stats.decide_ns.sum() << ", \"buckets\": [";
  bool first = true;
  const std::vector<int64_t>& counts = stats.decide_ns.counts();
  for (size_t index = 0; index < counts.size(); ++index) {
    if (counts[index] == 0) continue;
    out << (first ? "" : ", ") << "[" << LogLinearHistogram::Lower(index)
        << ", " << LogLinearHistogram::Width(index) << ", " << counts[index]
        << "]";
    first = false;
  }
  out << "]}}}\n";
  return static_cast<bool>(out);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "ftoa_e2e: %s\n", message.c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Fail(error);
  if (args.list) {
    for (const Workload& workload : kWorkloads) {
      std::printf("%s\n", workload.name);
    }
    return 0;
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) {
    std::string valid;
    for (const Workload& w : kWorkloads) valid += std::string(" ") + w.name;
    return Fail("unknown --workload '" + args.workload + "' (valid:" + valid +
                ")");
  }

  const CityProfile base = std::string(workload->city) == "hangzhou"
                               ? HangzhouProfile()
                               : BeijingProfile();
  const uint64_t seed = args.has_seed ? args.seed : base.seed;
  LoopedTraceSource::Options trace;
  trace.scale = args.smoke ? kSmokeScale : workload->scale;
  const ServiceOptions options = ServingOptions(*workload);
  const int64_t spd = base.slots_per_day;
  const int64_t days_per_city =
      args.smoke ? 1
                 : std::max<int64_t>(1, std::llround(workload->days_per_city *
                                                     args.seconds / 15.0));
  const int64_t per_commit = workload->windows_per_segment == 0
                                 ? spd
                                 : workload->windows_per_segment;
  const int64_t commits_per_city = days_per_city * spd / per_commit;
  const std::string context =
      ContextJson(args, *workload, seed, trace.scale, days_per_city);

  const Result<FeasibilityPolicy> policy = PolicyOf(workload->algorithm);
  const Result<FeasibilityPolicy> greedy_policy = PolicyOf("simple-greedy");
  if (!policy.ok()) return Fail(policy.status().ToString());
  if (!greedy_policy.ok()) return Fail(greedy_policy.status().ToString());

  std::printf("workload %s: %s x%g, %s, seed %llu, %d cities x %lld "
              "measured days\n",
              workload->name, workload->city, trace.scale,
              workload->algorithm, static_cast<unsigned long long>(seed),
              kCities, static_cast<long long>(days_per_city));
  RunTotals totals;
  LayerStats stats;
  Tracer tracer;
  std::vector<std::string> checks, failures;
  int64_t pairs_checked = 0;
  int64_t matched_delta = 0;
  for (int city = 0; city < kCities && !totals.stopped_early; ++city) {
    CityProfile profile = base;
    profile.seed = CitySeed(seed, city);
    tracer.set_city(city);
    PairChecker checker(profile, trace, options, *policy, *greedy_policy);
    Result<std::unique_ptr<ServiceHarness>> harness =
        RunCity(profile, trace, options, commits_per_city,
                args.trace ? &tracer : nullptr, &checker, &totals);
    if (!harness.ok()) return Fail("harness: " + harness.status().ToString());
    pairs_checked += checker.checked();
    const std::string name = "city seed " + std::to_string(profile.seed);
    checks.push_back(name + ": " + checker.Summary());
    std::printf("  %s\n", checks.back().c_str());
    if (!checker.ok()) failures.push_back(checks.back());
    if (!args.trace) continue;

    LayerReplay replay(profile, trace, (*harness)->options(),
                       (*harness)->windows(), &tracer, &stats);
    const Status replayed = replay.Run(spd);
    if (!replayed.ok()) return Fail("replay: " + replayed.ToString());
    // Over every replayed day, the warm-up included: both sides run the
    // same windows from the same start.
    const int64_t harness_matched = (*harness)->totals().matched;
    const int64_t delta = replay.matched() - harness_matched;
    matched_delta += delta;
    const double allowed = workload->background_refresh
                               ? 0.01 * static_cast<double>(harness_matched)
                               : 0.0;
    if (std::abs(static_cast<double>(delta)) > allowed) {
      failures.push_back(name + ": replay matched " +
                         std::to_string(replay.matched()) + " vs harness " +
                         std::to_string(harness_matched));
    }
  }
  if (totals.stopped_early) {
    std::printf("  stopped after %zu commits (measured time cap %gs)\n",
                totals.commit_ms.size(), kMeasureCapSeconds);
  }
  if (totals.evicted_live != 0) {
    failures.push_back("evicted_live = " + std::to_string(totals.evicted_live));
  }
  if (totals.failed != 0) {
    failures.push_back("shed + dropped = " + std::to_string(totals.failed));
  }

  std::vector<Metric> metrics;
  std::string layers = "{}";
  if (!args.trace) {
    metrics = EndToEndMetrics(totals);
  } else {
    metrics = LayerMetrics(totals, tracer, stats, spd, matched_delta,
                           workload->shards);
    layers = LayerTableJson(tracer, spd);
    if (!args.trace_out.empty() &&
        !WriteTraceFile(args.trace_out, context, tracer, stats)) {
      return Fail("cannot write " + args.trace_out);
    }
  }
  PrintMetrics(metrics);
  const bool correct = failures.empty();
  std::printf("  checks: %lld pairs; evicted_live %lld; shed+dropped %lld "
              "of %lld offered -> %s\n",
              static_cast<long long>(pairs_checked),
              static_cast<long long>(totals.evicted_live),
              static_cast<long long>(totals.failed),
              static_cast<long long>(totals.offered),
              correct ? "ok" : "FAILED");
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "ftoa_e2e: check failed: %s\n", failure.c_str());
  }

  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", totals.offered)
      .Int("failed", totals.failed)
      .Raw("metrics", MetricsJson(metrics));
  if (!args.out.empty()) {
    JsonObject record;
    record.Str("workload", workload->name)
        .Str("mode", args.trace ? "trace" : "e2e")
        .Raw("context", context)
        .Bool("correct", correct)
        .Int("attempted", totals.offered)
        .Int("failed", totals.failed)
        .Int("commits", static_cast<int64_t>(totals.commit_ms.size()))
        .Raw("checks", JsonStrings(checks))
        .Raw("failures", JsonStrings(failures))
        .Raw("metrics", MetricsJson(metrics))
        .Raw("layers", layers);
    std::ofstream out(args.out);
    out << record.str() << "\n";
    if (!out) return Fail("cannot write " + args.out);
  }
  std::printf("%s\n", result.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ftoa

int main(int argc, char** argv) { return ftoa::Main(argc, argv); }
