// Offline guide generation (paper Algorithm 1): instantiate the predicted
// per-type counts into bipartite nodes, connect feasible (worker node, task
// node) pairs, and compute a maximum bipartite matching with max flow.
//
// Engines:
//  * kFordFulkerson — Algorithm 1 verbatim (DFS augmenting paths) on the
//    node-level network.
//  * kDinic — same network, Dinic's algorithm ("any other max-flow algorithm
//    is applicable", Section 4 note (1)).
//  * kCompressed — our aggregation: all nodes of one (slot, area) type are
//    interchangeable, so the network can use one node per *type* with
//    capacity a_ij / b_ij. The max-flow value is identical (exact capacity
//    aggregation) while the network shrinks from m + n nodes and
//    sum(a_wt * b_tt) edges to the number of nonempty types and feasible
//    type pairs. This is what makes city-scale guides practical (E15).
//  * kCompressedMinCost — the compressed network solved with min-cost
//    max-flow over travel costs (Section 4 note (2)): among all maximum
//    matchings, pick one minimizing total travel time.
//  * kAuto — node-level Dinic when the node-level network is small,
//    kCompressed otherwise.
//
// Component decomposition: the compressed engines first decompose the
// type-pair network into connected components (union-find over the feasible
// pairs). Components are independent sub-problems — no augmenting path
// crosses them — so each is solved on its own small network, one after
// another in component order on the generator's one solver arena. Per-pair
// flows are written into an array indexed by the original pair order and
// realized into guide matches in that order. The warm refresh mode reuses
// the flows of components whose network did not change.
//
// Every Generate call enumerates the feasible type pairs exactly once, into
// a buffer the generator reuses across calls like its flow arenas. kAuto's
// node-level edge estimate, the node-level network, the compressed network
// and the approximate-mode sample all consume that one list, in its
// deterministic order: worker slot, worker cell, task slot, task cell.
//
// Candidate table: the representative deadline and distance test depends
// only on the spacetime geometry, the velocity and the GuideOptions, never
// on the predicted counts. The generator therefore keeps the geometric half
// of the enumeration in a table keyed on SpacetimeSpec equality (velocity
// and options are fixed per generator), and a call filters it by predicted
// support. Per worker slot the table holds the candidate task slots with
// the slack the deadline test grants at each. Per (worker type, task slot)
// it holds the bounding-box size of the feasibility disk and, once built,
// the disk's task types in cell id order. A call scans the smaller of that
// box and the slot's nonempty task cells, as the per-call enumeration did:
// the disk list is built the first time the box side wins, and the sparse
// side keeps testing distances per call. Both sides emit the same types in
// the same order, so the pair list is identical whichever side runs, and
// the table never holds more than the cells the per-call enumeration would
// have scanned. A call on a different geometry rebuilds the table.

#ifndef FTOA_CORE_GUIDE_GENERATOR_H_
#define FTOA_CORE_GUIDE_GENERATOR_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/guide.h"
#include "core/prediction_matrix.h"
#include "flow/dinic.h"
#include "flow/flow_engine.h"
#include "flow/graph.h"
#include "flow/min_cost_flow.h"
#include "util/result.h"

namespace ftoa {

/// How consecutive Generate calls on one GuideGenerator relate.
///  * kCold — every call solves the full network from scratch (arenas are
///    still reused, so steady-state calls stay allocation-free).
///  * kWarm — the generator remembers the previous call's per-component
///    solves; a component whose pair list, capacities, and costs are
///    unchanged reuses its flows verbatim and only *dirty* components are
///    re-solved. Because each component's solve is a deterministic function
///    of the component's network alone, the warm guide is bit-identical to
///    the cold one (the equivalence suite pins this). The win scales with
///    the sparsity of the day-to-day prediction delta — the serving
///    refresher's steady state.
enum class GuideRefreshMode { kCold, kWarm };

/// Canonical names in declaration order ("cold", "warm") — CLI usage
/// strings and unknown-value errors derive from this list.
const std::vector<std::string>& AllGuideRefreshModeNames();

/// Canonical name of `mode`.
const char* GuideRefreshModeName(GuideRefreshMode mode);

/// Parses a canonical name; NotFound (listing the valid set) otherwise.
Result<GuideRefreshMode> ParseGuideRefreshMode(const std::string& name);

/// Tuning knobs for guide generation.
struct GuideOptions {
  enum class Engine {
    kFordFulkerson,
    kDinic,
    kCompressed,
    kCompressedMinCost,
    kAuto,
  };

  Engine engine = Engine::kAuto;

  /// Solver core for the kCompressedMinCost per-component networks (see
  /// flow/flow_engine.h). kAuto picks per component from the component's
  /// measured shape — deterministic for a fixed prediction, so the guide
  /// stays reproducible. Engines may return different equally-cheap flow
  /// patterns, so the guide is bit-identical *per engine* and (matched
  /// count, total cost)-equivalent across engines.
  FlowEngine flow_engine = FlowEngine::kAuto;

  /// Representative worker waiting time Dw used in the type-level deadline
  /// test (the platform knows its configured worker patience).
  double worker_duration = 3.0;

  /// Representative task service window Dr used in the type-level test.
  double task_duration = 2.0;

  /// Extra slack (time units) added to the type-level deadline test to
  /// compensate for slot-midpoint discretization: a worker and a task of
  /// the same slot meet at their midpoints in the test, yet the real pair
  /// enjoys up to one slot of extra travel credit (Definition 4 credits
  /// movement from Sw). 0 is the strict midpoint test; half the slot
  /// duration recovers the *expected* intra-slot credit. The paper glosses
  /// this ("such differences can be ignored") because its synthetic
  /// slot/velocity ratio makes it negligible; coarse-slot deployments (the
  /// city traces) are not in that regime.
  double representative_slack = 0.0;

  /// kAuto switches to kCompressed when the node-level network would exceed
  /// this many edges.
  int64_t node_level_edge_limit = 2'000'000;

  /// Approximate-guide mode: keep each feasible type pair in the network
  /// with this probability (seeded Bernoulli per pair, drawn in the
  /// deterministic pair-enumeration order — so the sample, like the exact
  /// solve, is reproducible). 1.0 (the default) is
  /// the exact network. Dropping pairs only removes edges, so the
  /// approximate guide's matched utility is a lower bound of the exact
  /// one; the measured gap bound is reported via last_approx_report().
  /// Must lie in (0, 1]. Values < 1 require a compressed engine (kAuto
  /// routes there automatically).
  double approx_sample_rate = 1.0;

  /// Seed of the pair-sampling stream (only used when
  /// approx_sample_rate < 1).
  uint64_t approx_seed = 0x5eedULL;

  /// Whether repeated Generate calls on this generator reuse unchanged
  /// component solves (see GuideRefreshMode). Only the compressed engines
  /// have components to reuse; the node-level engines always run cold and
  /// report warm = false in last_refresh_stats().
  GuideRefreshMode refresh_mode = GuideRefreshMode::kCold;
};

/// What approximate sampling did to the last generated guide. Each dropped
/// pair (wt, tt) can carry at most min(workers_at(wt), tasks_at(tt)) units
/// of flow, so utility_loss_bound — the sum of those capacities — is a
/// measured upper bound on the matched-pair count the sampled network can
/// lose against the exact one.
struct ApproxGuideReport {
  int64_t feasible_pairs = 0;      ///< Pairs the exact network would hold.
  int64_t sampled_pairs = 0;       ///< Pairs kept by the Bernoulli sample.
  int64_t utility_loss_bound = 0;  ///< Max matched pairs lost (measured).
};

/// What the warm cache did for the last Generate call. With refresh_mode ==
/// kCold (or on the node-level engines, or on the first warm call) every
/// component solves and warm is false; in the warm steady state
/// components_reused tracks how sparse the day-to-day delta really was.
struct GuideRefreshStats {
  bool warm = false;                ///< True iff any component was reused.
  int32_t components_total = 0;     ///< Components in this call's network.
  int32_t components_reused = 0;    ///< Solved by cache hit (no flow solve).
  int32_t components_solved = 0;    ///< Dirty — solved from scratch.
  int64_t pairs_total = 0;          ///< Type pairs in this call's network.
  int64_t pairs_reused = 0;         ///< Pairs whose flow came from the cache.
};

/// One feasible (worker type, task type) pair of the type-level network.
struct TypePairEdge {
  TypeId worker_type = -1;
  TypeId task_type = -1;
};

/// Builds OfflineGuide instances from prediction matrices.
///
/// The generator owns one reusable solver arena (flow network edge arenas
/// and the solvers' scratch buffers), the candidate table and the
/// per-type scratch, so repeated Generate calls (one per prediction window
/// in a live deployment) stop re-allocating the network; a steady-state
/// call allocates little beyond the guide it returns.
/// Consequently a GuideGenerator instance is NOT thread-safe: concurrent
/// Generate calls on one instance are undefined; use one instance per
/// calling thread.
class GuideGenerator {
 public:
  /// `velocity` is the shared worker speed of the deployment.
  GuideGenerator(double velocity, GuideOptions options);

  /// Runs Algorithm 1 (or an equivalent engine) on `prediction`.
  Result<OfflineGuide> Generate(const PredictionMatrix& prediction) const;

  /// Number of edges the node-level bipartite network would contain, i.e.
  /// sum over feasible type pairs of a_wt * b_tt. Drives kAuto.
  int64_t EstimateNodeLevelEdges(const PredictionMatrix& prediction) const;

  /// Every type pair whose representatives satisfy the deadline constraint
  /// and whose predicted counts are both nonzero, in the deterministic
  /// order all engines consume. The list lives in a buffer the generator
  /// reuses: it stays valid until the next FeasibleTypePairs, Generate or
  /// EstimateNodeLevelEdges call on this generator.
  const std::vector<TypePairEdge>& FeasibleTypePairs(
      const PredictionMatrix& prediction) const;

  /// How many times this generator has enumerated the feasible type pairs
  /// (one per Generate call on every engine). Instrumentation for tests.
  int64_t pair_enumerations() const { return pair_enumerations_; }

  /// Connected components the last compressed Generate decomposed into
  /// (instrumentation for tests and benches; 0 before any compressed run).
  int32_t last_num_components() const { return last_num_components_; }

  /// Sampling outcome of the last compressed Generate. With
  /// approx_sample_rate == 1 it reports the exact network (sampled ==
  /// feasible, loss bound 0).
  const ApproxGuideReport& last_approx_report() const {
    return last_approx_report_;
  }

  /// Warm-cache outcome of the last Generate (see GuideRefreshStats).
  const GuideRefreshStats& last_refresh_stats() const {
    return last_refresh_stats_;
  }

  /// Drops the warm cache; the next Generate solves everything cold. Called
  /// automatically when a call's network-defining inputs (engine choice,
  /// minimize_cost path) differ from the cached call's.
  void InvalidateWarmCache() const;

 private:
  /// Reusable solver state; every solve of a Generate call runs on it.
  struct SolverArena {
    FlowGraph maxflow;
    MinCostFlowGraph mincost;
    DinicSolver dinic;
  };

  /// The geometric half of the pair enumeration (see the file comment).
  struct CandidateTable {
    /// A candidate task slot of one worker slot.
    struct TaskSlot {
      int32_t slot = 0;
      double slack = 0.0;  ///< Deadline slack at the representatives.
    };
    /// One (worker type, task slot): the disk's task types are
    /// task_types[begin, begin + count) once built.
    struct Disk {
      int64_t begin = -1;  ///< -1 until the box side first wins.
      int32_t count = 0;
      int32_t box_cells = 0;  ///< Cells of the disk's bounding box.
    };
    bool valid = false;
    SpacetimeSpec spacetime;  ///< The key, compared exactly.
    /// Per worker slot s: its task slots are task_slots[window_begin[s],
    /// window_begin[s + 1]).
    std::vector<int32_t> window_begin;
    std::vector<TaskSlot> task_slots;
    /// Per worker type: its first Disk, one per task slot of its window;
    /// -1 until the type first has predicted workers.
    std::vector<int64_t> first_disk;
    std::vector<Disk> disks;
    std::vector<TypeId> task_types;
  };

  /// Per-call scratch of the compressed engines sized by types and
  /// components, kept so a steady-state Generate does not regrow it (the
  /// vectors are described where GenerateCompressed fills them).
  struct CompressedScratch {
    std::vector<int32_t> worker_node_of_type;
    std::vector<int32_t> task_node_of_type;
    std::vector<TypeId> worker_types;
    std::vector<TypeId> task_types;
    std::vector<int32_t> parent;
    std::vector<int32_t> set_size;
    std::vector<int32_t> comp_of_root;
    std::vector<int32_t> comp_pair_begin;
    std::vector<int32_t> comp_of_worker;
    std::vector<int32_t> comp_worker_begin;
    std::vector<int32_t> comp_workers;
    std::vector<int32_t> comp_of_task;
    std::vector<int32_t> comp_task_begin;
    std::vector<int32_t> comp_tasks;
    std::vector<int32_t> group_cursor;
    std::vector<int32_t> local_worker_id;
    std::vector<int32_t> local_task_id;
    std::vector<int64_t> cached_begin;
    std::vector<uint64_t> comp_hash;
    std::vector<int32_t> worker_cursor;
    std::vector<int32_t> task_cursor;
  };

  /// Rebuilds candidates_ for `spacetime` with no disk built.
  void ResetCandidateTable(const SpacetimeSpec& spacetime) const;
  /// Index of `wtype`'s first Disk, creating its window's Disks.
  int64_t DisksOf(const SpacetimeSpec& spacetime, TypeId wtype) const;
  /// Fills `disk` with the task types of `tslot` whose cell centers are
  /// within the worker cell's feasibility disk, in cell id order.
  void BuildDisk(const SpacetimeSpec& spacetime, CellId wcell,
                 const CandidateTable::TaskSlot& tslot,
                 CandidateTable::Disk* disk) const;
  /// Adds the predicted nodes of every type to `guide`, type by type, so
  /// each type's nodes form one id range on each side.
  void InstantiateNodes(const PredictionMatrix& prediction,
                        OfflineGuide* guide) const;

  /// Both take the pair list FeasibleTypePairs returned for `prediction`.
  Result<OfflineGuide> GenerateNodeLevel(
      const PredictionMatrix& prediction,
      const std::vector<TypePairEdge>& pairs, bool use_dinic) const;
  Result<OfflineGuide> GenerateCompressed(
      const PredictionMatrix& prediction,
      const std::vector<TypePairEdge>& feasible, bool minimize_cost) const;

  /// The warm cache: the previous compressed call's per-component networks
  /// and solved flows, keyed by a content hash of each component's pair
  /// sequence (types + capacities in deterministic pair order). A new
  /// call's component whose sequence verifies equal against a cached entry
  /// reuses the cached flows verbatim — costs are a pure function of the
  /// type ids, and each component solve is a deterministic function of the
  /// component network alone, so reuse is bit-exact. `minimize_cost`
  /// guards cross-path reuse (max-flow and min-cost flows differ).
  struct WarmCache {
    /// One cached component: its pair sequence and solved flows, stored as
    /// parallel slices [begin, begin + count) of the flat arrays below.
    struct Entry {
      int64_t begin = 0;
      int64_t count = 0;
    };
    bool valid = false;
    bool minimize_cost = false;
    /// Hash of everything network-defining that can vary across calls on
    /// one generator (the spacetime geometry the costs derive from); a
    /// mismatch drops the cache rather than risking stale flows.
    uint64_t fingerprint = 0;
    std::vector<Entry> entries;
    /// Flat per-pair payload, concatenated in cached-component order:
    /// worker type, task type, worker capacity, task capacity, solved flow.
    std::vector<TypeId> pair_wt;
    std::vector<TypeId> pair_tt;
    std::vector<int64_t> pair_wcap;
    std::vector<int64_t> pair_tcap;
    std::vector<int64_t> pair_flow;
    /// Content hash -> indices into `entries` (a vector to survive the
    /// astronomically-unlikely hash collision; membership is always
    /// confirmed by full sequence comparison).
    std::unordered_map<uint64_t, std::vector<int32_t>> by_hash;
  };

  double velocity_;
  GuideOptions options_;

  // Reusable solver arenas (see class comment). Mutable: reusing scratch
  // does not change the observable result of the logically-const Generate.
  mutable SolverArena arena_;
  mutable std::vector<TypePairEdge> feasible_pairs_;  // FeasibleTypePairs.
  mutable std::vector<TypePairEdge> sampled_pairs_;   // Approximate mode.
  mutable CandidateTable candidates_;
  // Nonempty task cells of slot s: sparse_cells_[sparse_begin_[s],
  // sparse_begin_[s + 1]), rebuilt per enumeration.
  mutable std::vector<int32_t> sparse_begin_;
  mutable std::vector<CellId> sparse_cells_;
  mutable CompressedScratch scratch_;
  mutable int64_t pair_enumerations_ = 0;
  mutable int32_t last_num_components_ = 0;
  mutable ApproxGuideReport last_approx_report_;
  mutable GuideRefreshStats last_refresh_stats_;
  mutable WarmCache warm_cache_;
};

}  // namespace ftoa

#endif  // FTOA_CORE_GUIDE_GENERATOR_H_
