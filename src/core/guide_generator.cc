#include "core/guide_generator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "flow/dinic.h"
#include "flow/ford_fulkerson.h"
#include "flow/min_cost_flow.h"
#include "model/feasibility.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ftoa {

const std::vector<std::string>& AllGuideRefreshModeNames() {
  static const std::vector<std::string> kNames = {"cold", "warm"};
  return kNames;
}

const char* GuideRefreshModeName(GuideRefreshMode mode) {
  switch (mode) {
    case GuideRefreshMode::kCold:
      return "cold";
    case GuideRefreshMode::kWarm:
      return "warm";
  }
  return "unknown";
}

Result<GuideRefreshMode> ParseGuideRefreshMode(const std::string& name) {
  if (name == "cold") return GuideRefreshMode::kCold;
  if (name == "warm") return GuideRefreshMode::kWarm;
  return Status::NotFound("unknown refresh mode \"" + name + "\" (valid: " +
                          Join(AllGuideRefreshModeNames(), ", ") + ")");
}

namespace {

/// FNV-1a over 64-bit words — the warm cache's content hash. Collisions are
/// harmless (membership is confirmed by full sequence comparison); the hash
/// only has to make lookups cheap.
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

inline uint64_t FnvStep(uint64_t h, uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

GuideGenerator::GuideGenerator(double velocity, GuideOptions options)
    : velocity_(velocity), options_(options) {}

void GuideGenerator::InvalidateWarmCache() const {
  warm_cache_ = WarmCache{};
}

namespace {

/// Column and row range of the cells the feasibility disk of radius
/// `radius` around `center` can reach, clamped to the grid. std::floor
/// before the int cast so each bound is the disk edge's true cell index
/// even when (center - radius) is negative (the clamp happens to erase the
/// difference from a plain cast; floor states the intended semantics).
struct DiskBox {
  int cx_lo;
  int cx_hi;
  int cy_lo;
  int cy_hi;

  DiskBox(const GridSpec& grid, Point center, double radius)
      : cx_lo(std::max(0, static_cast<int>(std::floor(
                              (center.x - radius) / grid.cell_width())))),
        cx_hi(std::min(grid.cells_x() - 1,
                       static_cast<int>(std::floor((center.x + radius) /
                                                   grid.cell_width())))),
        cy_lo(std::max(0, static_cast<int>(std::floor(
                              (center.y - radius) / grid.cell_height())))),
        cy_hi(std::min(grid.cells_y() - 1,
                       static_cast<int>(std::floor((center.y + radius) /
                                                   grid.cell_height())))) {}

  int64_t cells() const {
    return static_cast<int64_t>(cx_hi - cx_lo + 1) * (cy_hi - cy_lo + 1);
  }
};

}  // namespace

void GuideGenerator::ResetCandidateTable(
    const SpacetimeSpec& spacetime) const {
  CandidateTable& table = candidates_;
  table.valid = true;
  table.spacetime = spacetime;
  const SlotSpec& slots = spacetime.slots();
  const double dw = options_.worker_duration;
  const double dr = options_.task_duration;
  const double rep_slack = options_.representative_slack;
  table.window_begin.assign(static_cast<size_t>(slots.num_slots()) + 1, 0);
  table.task_slots.clear();
  for (int wslot = 0; wslot < slots.num_slots(); ++wslot) {
    const double sw = slots.SlotMidpoint(wslot);
    // Candidate task slots: representatives must satisfy
    //   sr < sw + dw (+ slack)  and  dr - (sw - sr) (+ slack) >= 0.
    const int slot_lo = std::max(
        0, slots.SlotOf(std::max(0.0, sw - dr - rep_slack)) - 1);
    const int slot_hi = std::min(slots.num_slots() - 1,
                                 slots.SlotOf(sw + dw + rep_slack) + 1);
    for (int tslot = slot_lo; tslot <= slot_hi; ++tslot) {
      const double sr = slots.SlotMidpoint(tslot);
      if (!(sr < sw + dw + rep_slack)) continue;
      const double slack = dr - (sw - sr) + rep_slack;
      if (slack < 0.0) continue;
      table.task_slots.push_back(CandidateTable::TaskSlot{tslot, slack});
    }
    table.window_begin[static_cast<size_t>(wslot) + 1] =
        static_cast<int32_t>(table.task_slots.size());
  }
  table.first_disk.assign(static_cast<size_t>(spacetime.num_types()), -1);
  table.disks.clear();
  table.task_types.clear();
}

int64_t GuideGenerator::DisksOf(const SpacetimeSpec& spacetime,
                                TypeId wtype) const {
  CandidateTable& table = candidates_;
  int64_t& first = table.first_disk[static_cast<size_t>(wtype)];
  if (first >= 0) return first;
  first = static_cast<int64_t>(table.disks.size());
  const int wslot = spacetime.SlotOfType(wtype);
  const Point wloc = spacetime.RepresentativeLocation(wtype);
  for (int32_t i = table.window_begin[static_cast<size_t>(wslot)];
       i < table.window_begin[static_cast<size_t>(wslot) + 1]; ++i) {
    const double radius =
        table.task_slots[static_cast<size_t>(i)].slack * velocity_;
    CandidateTable::Disk disk;
    disk.box_cells = static_cast<int32_t>(
        DiskBox(spacetime.grid(), wloc, radius).cells());
    table.disks.push_back(disk);
  }
  return first;
}

void GuideGenerator::BuildDisk(const SpacetimeSpec& spacetime, CellId wcell,
                               const CandidateTable::TaskSlot& tslot,
                               CandidateTable::Disk* disk) const {
  std::vector<TypeId>& types = candidates_.task_types;
  const GridSpec& grid = spacetime.grid();
  const Point wloc = grid.CellCenter(wcell);
  const DiskBox box(grid, wloc, tslot.slack * velocity_);
  disk->begin = static_cast<int64_t>(types.size());
  for (int cy = box.cy_lo; cy <= box.cy_hi; ++cy) {
    for (int cx = box.cx_lo; cx <= box.cx_hi; ++cx) {
      const CellId tcell = grid.CellAt(cx, cy);
      if (Distance(wloc, grid.CellCenter(tcell)) / velocity_ <= tslot.slack) {
        types.push_back(spacetime.TypeAt(tslot.slot, tcell));
      }
    }
  }
  disk->count = static_cast<int32_t>(static_cast<int64_t>(types.size()) -
                                     disk->begin);
}

const std::vector<TypePairEdge>& GuideGenerator::FeasibleTypePairs(
    const PredictionMatrix& prediction) const {
  ++pair_enumerations_;
  std::vector<TypePairEdge>& pairs = feasible_pairs_;
  pairs.clear();
  const SpacetimeSpec& st = prediction.spacetime();
  if (!candidates_.valid || !(candidates_.spacetime == st)) {
    ResetCandidateTable(st);
  }
  const CandidateTable& table = candidates_;
  const GridSpec& grid = st.grid();
  const int num_slots = st.num_slots();
  const int num_areas = st.num_areas();

  // Per-slot list of cells with predicted tasks, for the sparse side.
  sparse_begin_.assign(static_cast<size_t>(num_slots) + 1, 0);
  sparse_cells_.clear();
  for (int slot = 0; slot < num_slots; ++slot) {
    for (CellId cell = 0; cell < num_areas; ++cell) {
      if (prediction.tasks_at(st.TypeAt(slot, cell)) > 0) {
        sparse_cells_.push_back(cell);
      }
    }
    sparse_begin_[static_cast<size_t>(slot) + 1] =
        static_cast<int32_t>(sparse_cells_.size());
  }

  for (int wslot = 0; wslot < num_slots; ++wslot) {
    const int32_t window_lo = table.window_begin[static_cast<size_t>(wslot)];
    const int32_t window_hi =
        table.window_begin[static_cast<size_t>(wslot) + 1];
    for (CellId wcell = 0; wcell < num_areas; ++wcell) {
      const TypeId wtype = st.TypeAt(wslot, wcell);
      if (prediction.workers_at(wtype) <= 0) continue;
      const int64_t first = DisksOf(st, wtype);
      for (int32_t i = window_lo; i < window_hi; ++i) {
        const CandidateTable::TaskSlot& tslot =
            table.task_slots[static_cast<size_t>(i)];
        const int32_t sparse_lo =
            sparse_begin_[static_cast<size_t>(tslot.slot)];
        const int32_t sparse_hi =
            sparse_begin_[static_cast<size_t>(tslot.slot) + 1];
        CandidateTable::Disk& disk =
            candidates_.disks[static_cast<size_t>(first + (i - window_lo))];
        // Scan whichever side is smaller: the disk's bounding box (through
        // its built list) or the slot's nonempty task cells.
        if (disk.box_cells <= sparse_hi - sparse_lo) {
          if (disk.begin < 0) BuildDisk(st, wcell, tslot, &disk);
          const TypeId* types =
              table.task_types.data() + static_cast<size_t>(disk.begin);
          for (int32_t k = 0; k < disk.count; ++k) {
            if (prediction.tasks_at(types[k]) > 0) {
              pairs.push_back(TypePairEdge{wtype, types[k]});
            }
          }
        } else {
          const Point wloc = grid.CellCenter(wcell);
          for (int32_t k = sparse_lo; k < sparse_hi; ++k) {
            const CellId tcell = sparse_cells_[static_cast<size_t>(k)];
            if (Distance(wloc, grid.CellCenter(tcell)) / velocity_ <=
                tslot.slack) {
              pairs.push_back(
                  TypePairEdge{wtype, st.TypeAt(tslot.slot, tcell)});
            }
          }
        }
      }
    }
  }
  return pairs;
}

namespace {

/// Edges of the node-level network: sum over `pairs` of a_wt * b_tt.
int64_t NodeLevelEdges(const PredictionMatrix& prediction,
                       const std::vector<TypePairEdge>& pairs) {
  int64_t edges = 0;
  for (const TypePairEdge& pair : pairs) {
    edges += static_cast<int64_t>(prediction.workers_at(pair.worker_type)) *
             prediction.tasks_at(pair.task_type);
  }
  return edges;
}

}  // namespace

void GuideGenerator::InstantiateNodes(const PredictionMatrix& prediction,
                                      OfflineGuide* guide) const {
  const int num_types = prediction.spacetime().num_types();
  for (TypeId type = 0; type < num_types; ++type) {
    const int32_t workers = prediction.workers_at(type);
    if (workers > 0) guide->AddWorkerNodes(type, workers);
    const int32_t tasks = prediction.tasks_at(type);
    if (tasks > 0) guide->AddTaskNodes(type, tasks);
  }
}

int64_t GuideGenerator::EstimateNodeLevelEdges(
    const PredictionMatrix& prediction) const {
  return NodeLevelEdges(prediction, FeasibleTypePairs(prediction));
}

Result<OfflineGuide> GuideGenerator::GenerateNodeLevel(
    const PredictionMatrix& prediction,
    const std::vector<TypePairEdge>& pairs, bool use_dinic) const {
  // The node-level network has no component decomposition to diff, so it
  // always runs cold (docs/flow_engines.md documents the fallback).
  last_refresh_stats_ = GuideRefreshStats{};
  const int64_t m = prediction.TotalWorkers();
  const int64_t n = prediction.TotalTasks();
  const int64_t node_edges = NodeLevelEdges(prediction, pairs);
  // Every edge is two int32-indexed arcs; the source, sink and pair arcs
  // together must fit, and the check runs before any node exists.
  const int64_t arcs = 2 * (m + n + node_edges);
  if (node_edges > (1LL << 28) ||
      arcs > std::numeric_limits<EdgeId>::max()) {
    return Status::InvalidArgument(
        "GuideGenerator: node-level network too large (" +
        std::to_string(arcs) + " arcs); use kCompressed");
  }

  OfflineGuide guide(prediction.spacetime(), velocity_,
                     options_.worker_duration, options_.task_duration,
                     options_.representative_slack);
  InstantiateNodes(prediction, &guide);

  // Network layout: source 0, worker nodes 1..m, task nodes m+1..m+n,
  // sink m+n+1 (Algorithm 1 lines 1-5). The edge arena and the solver
  // scratch live in the generator and are reused across calls.
  const NodeId source = 0;
  const NodeId sink = static_cast<NodeId>(m + n + 1);
  FlowGraph& network = arena_.maxflow;
  network.Reset(static_cast<NodeId>(m + n + 2));
  network.ReserveEdges(static_cast<size_t>(m + n + node_edges));
  for (int64_t w = 0; w < m; ++w) {
    network.AddEdge(source, static_cast<NodeId>(1 + w), 1);
  }
  for (int64_t r = 0; r < n; ++r) {
    network.AddEdge(static_cast<NodeId>(1 + m + r), sink, 1);
  }

  // Lines 6-9: one edge per feasible (worker node, task node) pair. Nodes of
  // a type are contiguous in the guide, so we expand per feasible type pair.
  std::vector<EdgeId> pair_edges;
  std::vector<std::pair<GuideNodeId, GuideNodeId>> pair_nodes;
  for (const auto& [wt, tt] : pairs) {
    const GuideNodeId w0 = guide.WorkerNodesOfType(wt).first;
    const GuideNodeId r0 = guide.TaskNodesOfType(tt).first;
    const int32_t wc = prediction.workers_at(wt);
    const int32_t tc = prediction.tasks_at(tt);
    for (int32_t wi = 0; wi < wc; ++wi) {
      for (int32_t ti = 0; ti < tc; ++ti) {
        const EdgeId e = network.AddEdge(
            static_cast<NodeId>(1 + w0 + wi),
            static_cast<NodeId>(1 + m + r0 + ti), 1);
        pair_edges.push_back(e);
        pair_nodes.emplace_back(w0 + wi, r0 + ti);
      }
    }
  }

  // Line 10: max flow.
  if (use_dinic) {
    arena_.dinic.Solve(&network, source, sink);
  } else {
    FordFulkersonMaxFlow(&network, source, sink);
  }

  for (size_t k = 0; k < pair_edges.size(); ++k) {
    if (network.Flow(pair_edges[k]) > 0) {
      FTOA_RETURN_NOT_OK(
          guide.MatchNodes(pair_nodes[k].first, pair_nodes[k].second));
    }
  }
  return guide;
}

Result<OfflineGuide> GuideGenerator::GenerateCompressed(
    const PredictionMatrix& prediction,
    const std::vector<TypePairEdge>& feasible, bool minimize_cost) const {
  const SpacetimeSpec& st = prediction.spacetime();
  const int num_types = st.num_types();
  CompressedScratch& scratch = scratch_;

  // Feasible type pairs in the deterministic enumeration order, thinned by
  // the approximate-mode Bernoulli sample *before* component decomposition
  // — the sampled pair list is what defines the components.
  ApproxGuideReport report;
  report.feasible_pairs = static_cast<int64_t>(feasible.size());
  const double rate = options_.approx_sample_rate;
  if (rate < 1.0) {
    Rng sampler(options_.approx_seed);
    sampled_pairs_.clear();
    for (const TypePairEdge& pair : feasible) {
      if (sampler.NextBool(rate)) {
        sampled_pairs_.push_back(pair);
        continue;
      }
      // A dropped pair can carry at most min(supply, demand) flow — the
      // per-pair capacity of the exact network.
      report.utility_loss_bound +=
          std::min<int64_t>(prediction.workers_at(pair.worker_type),
                            prediction.tasks_at(pair.task_type));
    }
  }
  const std::vector<TypePairEdge>& pairs =
      rate < 1.0 ? sampled_pairs_ : feasible;
  report.sampled_pairs = static_cast<int64_t>(pairs.size());
  last_approx_report_ = report;

  // Dense type id -> compact network node id, assigned on first use over
  // the (sampled) pair list.
  std::vector<int32_t>& worker_node_of_type = scratch.worker_node_of_type;
  std::vector<int32_t>& task_node_of_type = scratch.task_node_of_type;
  std::vector<TypeId>& worker_types = scratch.worker_types;
  std::vector<TypeId>& task_types = scratch.task_types;
  worker_node_of_type.assign(static_cast<size_t>(num_types), -1);
  task_node_of_type.assign(static_cast<size_t>(num_types), -1);
  worker_types.clear();
  task_types.clear();
  for (const TypePairEdge& pair : pairs) {
    if (worker_node_of_type[static_cast<size_t>(pair.worker_type)] < 0) {
      worker_node_of_type[static_cast<size_t>(pair.worker_type)] =
          static_cast<int32_t>(worker_types.size());
      worker_types.push_back(pair.worker_type);
    }
    if (task_node_of_type[static_cast<size_t>(pair.task_type)] < 0) {
      task_node_of_type[static_cast<size_t>(pair.task_type)] =
          static_cast<int32_t>(task_types.size());
      task_types.push_back(pair.task_type);
    }
  }

  const int32_t wcount = static_cast<int32_t>(worker_types.size());
  const int32_t tcount = static_cast<int32_t>(task_types.size());

  OfflineGuide guide(st, velocity_, options_.worker_duration,
                     options_.task_duration,
                     options_.representative_slack);
  InstantiateNodes(prediction, &guide);

  // ---- Connected-component decomposition. Compact worker node i and
  // compact task node j live at union-find indices i and wcount + j.
  // Components are independent flow problems: every source/sink edge is
  // private to its type node, so no augmenting path crosses components and
  // solving them separately is exact.
  // Union by size keeps the trees shallow; which root a set gets never
  // matters, only its membership.
  std::vector<int32_t>& parent = scratch.parent;
  std::vector<int32_t>& set_size = scratch.set_size;
  parent.resize(static_cast<size_t>(wcount + tcount));
  std::iota(parent.begin(), parent.end(), 0);
  set_size.assign(static_cast<size_t>(wcount + tcount), 1);
  auto find = [&parent](int32_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  for (const TypePairEdge& pair : pairs) {
    int32_t a =
        find(worker_node_of_type[static_cast<size_t>(pair.worker_type)]);
    int32_t b = find(
        wcount + task_node_of_type[static_cast<size_t>(pair.task_type)]);
    if (a == b) continue;
    if (set_size[static_cast<size_t>(a)] < set_size[static_cast<size_t>(b)]) {
      std::swap(a, b);
    }
    parent[static_cast<size_t>(b)] = a;
    set_size[static_cast<size_t>(a)] += set_size[static_cast<size_t>(b)];
  }

  // Component ids in first-appearance order over the pair list, so the
  // decomposition — and with it the solve order below — is deterministic.
  // The pair-sized buffers (pair_comp, comp_pairs, pair_flow, edge_ids;
  // ~3.5 MB on a Beijing x0.5 day) are one exact-size allocation each per
  // call: kept between solves they raised serve's peak RSS by more than
  // their size.
  std::vector<int32_t>& comp_of_root = scratch.comp_of_root;
  comp_of_root.assign(static_cast<size_t>(wcount + tcount), -1);
  std::vector<int32_t> pair_comp(pairs.size());
  int32_t num_components = 0;
  int32_t last_worker = -1;  // Pairs arrive grouped by worker type.
  int32_t comp = -1;
  for (size_t k = 0; k < pairs.size(); ++k) {
    const int32_t worker =
        worker_node_of_type[static_cast<size_t>(pairs[k].worker_type)];
    if (worker != last_worker) {
      const int32_t root = find(worker);
      if (comp_of_root[static_cast<size_t>(root)] < 0) {
        comp_of_root[static_cast<size_t>(root)] = num_components++;
      }
      comp = comp_of_root[static_cast<size_t>(root)];
      last_worker = worker;
    }
    pair_comp[k] = comp;
  }
  last_num_components_ = num_components;

  // Group pairs and compact nodes by component with counting sorts that
  // preserve the original order within each component.
  std::vector<int32_t>& group_cursor = scratch.group_cursor;
  auto group_by_comp = [num_components, &group_cursor](
                           const std::vector<int32_t>& comp_of,
                           std::vector<int32_t>* begin,
                           std::vector<int32_t>* items) {
    begin->assign(static_cast<size_t>(num_components) + 1, 0);
    for (const int32_t c : comp_of) ++(*begin)[static_cast<size_t>(c) + 1];
    for (int32_t c = 0; c < num_components; ++c) {
      (*begin)[static_cast<size_t>(c) + 1] += (*begin)[static_cast<size_t>(c)];
    }
    items->resize(comp_of.size());
    group_cursor.assign(begin->begin(), begin->end() - 1);
    for (size_t i = 0; i < comp_of.size(); ++i) {
      (*items)[static_cast<size_t>(
          group_cursor[static_cast<size_t>(comp_of[i])]++)] =
          static_cast<int32_t>(i);
    }
  };

  // Pair indices, compact worker ids and compact task ids by component.
  const std::vector<int32_t>& comp_pair_begin = scratch.comp_pair_begin;
  std::vector<int32_t> comp_pairs;
  group_by_comp(pair_comp, &scratch.comp_pair_begin, &comp_pairs);

  std::vector<int32_t>& comp_of_worker = scratch.comp_of_worker;
  comp_of_worker.resize(static_cast<size_t>(wcount));
  for (int32_t i = 0; i < wcount; ++i) {
    comp_of_worker[static_cast<size_t>(i)] =
        comp_of_root[static_cast<size_t>(find(i))];
  }
  std::vector<int32_t>& comp_of_task = scratch.comp_of_task;
  comp_of_task.resize(static_cast<size_t>(tcount));
  for (int32_t j = 0; j < tcount; ++j) {
    comp_of_task[static_cast<size_t>(j)] =
        comp_of_root[static_cast<size_t>(find(wcount + j))];
  }
  const std::vector<int32_t>& comp_worker_begin = scratch.comp_worker_begin;
  const std::vector<int32_t>& comp_workers = scratch.comp_workers;
  group_by_comp(comp_of_worker, &scratch.comp_worker_begin,
                &scratch.comp_workers);
  const std::vector<int32_t>& comp_task_begin = scratch.comp_task_begin;
  const std::vector<int32_t>& comp_tasks = scratch.comp_tasks;
  group_by_comp(comp_of_task, &scratch.comp_task_begin, &scratch.comp_tasks);

  // Local (within-component) network node id of each compact node.
  std::vector<int32_t>& local_worker_id = scratch.local_worker_id;
  local_worker_id.resize(static_cast<size_t>(wcount));
  for (int32_t c = 0; c < num_components; ++c) {
    for (int32_t p = comp_worker_begin[static_cast<size_t>(c)];
         p < comp_worker_begin[static_cast<size_t>(c) + 1]; ++p) {
      local_worker_id[static_cast<size_t>(comp_workers[static_cast<size_t>(
          p)])] = p - comp_worker_begin[static_cast<size_t>(c)];
    }
  }
  std::vector<int32_t>& local_task_id = scratch.local_task_id;
  local_task_id.resize(static_cast<size_t>(tcount));
  for (int32_t c = 0; c < num_components; ++c) {
    for (int32_t p = comp_task_begin[static_cast<size_t>(c)];
         p < comp_task_begin[static_cast<size_t>(c) + 1]; ++p) {
      local_task_id[static_cast<size_t>(comp_tasks[static_cast<size_t>(
          p)])] = p - comp_task_begin[static_cast<size_t>(c)];
    }
  }

  // ---- Warm cache lookup. A component's local network is fully determined
  // by its pair sequence: local node ids are first-use ranks within the
  // component's pairs, capacities come from the per-type predicted counts,
  // and edge costs are a pure function of the type ids (representative
  // locations) under a fixed geometry. So a component whose (worker type,
  // task type, worker count, task count) sequence matches a cached
  // component from the previous call — verified element-wise, the hash only
  // routes the lookup — would rebuild the *identical* network, and its
  // cached flows are exactly what a fresh solve would return. Those
  // components take their flows from the cache and skip the solve below;
  // only dirty components solve, from scratch on the persistent arena
  // (injecting warm flows into a dirty component is NOT done: it could
  // steer the solver to a different equally-optimal flow pattern and break
  // the warm == cold bit-identity contract).
  const bool warm = options_.refresh_mode == GuideRefreshMode::kWarm;
  GuideRefreshStats refresh_stats;
  refresh_stats.components_total = num_components;
  refresh_stats.pairs_total = static_cast<int64_t>(pairs.size());

  uint64_t fingerprint = kFnvOffset;
  {
    const GridSpec& grid = st.grid();
    fingerprint = FnvStep(fingerprint, static_cast<uint64_t>(num_types));
    fingerprint =
        FnvStep(fingerprint, static_cast<uint64_t>(st.num_slots()));
    fingerprint = FnvStep(fingerprint, static_cast<uint64_t>(grid.cells_x()));
    fingerprint = FnvStep(fingerprint, static_cast<uint64_t>(grid.cells_y()));
    fingerprint = FnvStep(fingerprint, DoubleBits(grid.cell_width()));
    fingerprint = FnvStep(fingerprint, DoubleBits(grid.cell_height()));
    fingerprint = FnvStep(fingerprint, DoubleBits(velocity_));
  }

  // Per component: start of its cached flow slice, or -1 when dirty.
  std::vector<int64_t>& cached_begin = scratch.cached_begin;
  std::vector<uint64_t>& comp_hash = scratch.comp_hash;
  if (warm) {
    cached_begin.assign(static_cast<size_t>(num_components), -1);
    comp_hash.assign(static_cast<size_t>(num_components), 0);
    const bool cache_usable = warm_cache_.valid &&
                              warm_cache_.minimize_cost == minimize_cost &&
                              warm_cache_.fingerprint == fingerprint;
    for (int32_t c = 0; c < num_components; ++c) {
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      uint64_t h = kFnvOffset;
      for (int32_t p = p_lo; p < p_hi; ++p) {
        const TypePairEdge& pair =
            pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
        h = FnvStep(h, static_cast<uint64_t>(pair.worker_type));
        h = FnvStep(h, static_cast<uint64_t>(pair.task_type));
        h = FnvStep(h, static_cast<uint64_t>(
                           prediction.workers_at(pair.worker_type)));
        h = FnvStep(h, static_cast<uint64_t>(
                           prediction.tasks_at(pair.task_type)));
      }
      comp_hash[static_cast<size_t>(c)] = h;
      if (!cache_usable) continue;
      const auto it = warm_cache_.by_hash.find(h);
      if (it == warm_cache_.by_hash.end()) continue;
      for (const int32_t entry_index : it->second) {
        const WarmCache::Entry& entry =
            warm_cache_.entries[static_cast<size_t>(entry_index)];
        if (entry.count != p_hi - p_lo) continue;
        bool equal = true;
        for (int32_t p = p_lo; p < p_hi && equal; ++p) {
          const size_t at = static_cast<size_t>(entry.begin + (p - p_lo));
          const TypePairEdge& pair =
              pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
          equal = warm_cache_.pair_wt[at] == pair.worker_type &&
                  warm_cache_.pair_tt[at] == pair.task_type &&
                  warm_cache_.pair_wcap[at] ==
                      prediction.workers_at(pair.worker_type) &&
                  warm_cache_.pair_tcap[at] ==
                      prediction.tasks_at(pair.task_type);
        }
        if (equal) {
          cached_begin[static_cast<size_t>(c)] = entry.begin;
          break;
        }
      }
    }
  }

  // ---- Solve every dirty component in component order on the one arena;
  // per-pair flows land in an array indexed by the *original* pair index,
  // which the merge below walks.
  std::vector<int64_t> pair_flow(pairs.size(), 0);

  if (warm) {
    for (int32_t c = 0; c < num_components; ++c) {
      const int64_t begin = cached_begin[static_cast<size_t>(c)];
      if (begin < 0) continue;
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      for (int32_t p = p_lo; p < p_hi; ++p) {
        pair_flow[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])] =
            warm_cache_.pair_flow[static_cast<size_t>(begin + (p - p_lo))];
      }
      ++refresh_stats.components_reused;
      refresh_stats.pairs_reused += p_hi - p_lo;
    }
  }

  std::vector<EdgeId> edge_ids;  // Pair-edge ids of the current network.
  edge_ids.reserve(pairs.size());
  for (int32_t c = 0; c < num_components; ++c) {
    if (warm && cached_begin[static_cast<size_t>(c)] >= 0) continue;
    const int32_t w_lo = comp_worker_begin[static_cast<size_t>(c)];
    const int32_t t_lo = comp_task_begin[static_cast<size_t>(c)];
    const int32_t cw = comp_worker_begin[static_cast<size_t>(c) + 1] - w_lo;
    const int32_t ct = comp_task_begin[static_cast<size_t>(c) + 1] - t_lo;
    const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
    const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
    const int32_t source = 0;
    const int32_t sink = 1 + cw + ct;

    edge_ids.clear();
    auto add_supply_edges = [&](auto& network, auto add_edge) {
      for (int32_t p = w_lo; p < w_lo + cw; ++p) {
        const TypeId type = worker_types[static_cast<size_t>(
            comp_workers[static_cast<size_t>(p)])];
        add_edge(network, source, 1 + (p - w_lo),
                 static_cast<int64_t>(prediction.workers_at(type)));
      }
      for (int32_t p = t_lo; p < t_lo + ct; ++p) {
        const TypeId type = task_types[static_cast<size_t>(
            comp_tasks[static_cast<size_t>(p)])];
        add_edge(network, 1 + cw + (p - t_lo), sink,
                 static_cast<int64_t>(prediction.tasks_at(type)));
      }
    };

    if (minimize_cost) {
      MinCostFlowGraph& network = arena_.mincost;
      network.Reset(sink + 1);
      network.ReserveEdges(static_cast<size_t>(cw + ct + (p_hi - p_lo)));
      add_supply_edges(network,
                       [](MinCostFlowGraph& net, int32_t u, int32_t v,
                          int64_t cap) { net.AddEdge(u, v, cap, 0); });
      for (int32_t p = p_lo; p < p_hi; ++p) {
        const TypePairEdge& pair =
            pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
        const int32_t wi = local_worker_id[static_cast<size_t>(
            worker_node_of_type[static_cast<size_t>(pair.worker_type)])];
        const int32_t ti = local_task_id[static_cast<size_t>(
            task_node_of_type[static_cast<size_t>(pair.task_type)])];
        const double travel =
            TravelTime(st.RepresentativeLocation(pair.worker_type),
                       st.RepresentativeLocation(pair.task_type),
                       velocity_);
        const int64_t cap =
            std::min<int64_t>(prediction.workers_at(pair.worker_type),
                              prediction.tasks_at(pair.task_type));
        edge_ids.push_back(network.AddEdge(
            1 + wi, 1 + cw + ti, cap,
            static_cast<int64_t>(std::llround(travel * 1e6))));
      }
      network.Solve(source, sink, options_.flow_engine);
      for (int32_t p = p_lo; p < p_hi; ++p) {
        pair_flow[static_cast<size_t>(comp_pairs[static_cast<size_t>(
            p)])] = network.Flow(edge_ids[static_cast<size_t>(p - p_lo)]);
      }
    } else {
      FlowGraph& network = arena_.maxflow;
      network.Reset(sink + 1);
      network.ReserveEdges(static_cast<size_t>(cw + ct + (p_hi - p_lo)));
      add_supply_edges(network,
                       [](FlowGraph& net, int32_t u, int32_t v,
                          int64_t cap) { net.AddEdge(u, v, cap); });
      for (int32_t p = p_lo; p < p_hi; ++p) {
        const TypePairEdge& pair =
            pairs[static_cast<size_t>(comp_pairs[static_cast<size_t>(p)])];
        const int32_t wi = local_worker_id[static_cast<size_t>(
            worker_node_of_type[static_cast<size_t>(pair.worker_type)])];
        const int32_t ti = local_task_id[static_cast<size_t>(
            task_node_of_type[static_cast<size_t>(pair.task_type)])];
        const int64_t cap =
            std::min<int64_t>(prediction.workers_at(pair.worker_type),
                              prediction.tasks_at(pair.task_type));
        edge_ids.push_back(network.AddEdge(1 + wi, 1 + cw + ti, cap));
      }
      arena_.dinic.Solve(&network, source, sink);
      for (int32_t p = p_lo; p < p_hi; ++p) {
        pair_flow[static_cast<size_t>(comp_pairs[static_cast<size_t>(
            p)])] = network.Flow(edge_ids[static_cast<size_t>(p - p_lo)]);
      }
    }
  }

  // ---- Rebuild the cache from this call so the *next* call diffs against
  // the network just solved. Done for every warm-mode call (including the
  // first, all-dirty one — that is what seeds the cache).
  if (warm) {
    WarmCache& cache = warm_cache_;
    cache.valid = true;
    cache.minimize_cost = minimize_cost;
    cache.fingerprint = fingerprint;
    cache.entries.clear();
    cache.entries.reserve(static_cast<size_t>(num_components));
    cache.by_hash.clear();
    cache.pair_wt.resize(pairs.size());
    cache.pair_tt.resize(pairs.size());
    cache.pair_wcap.resize(pairs.size());
    cache.pair_tcap.resize(pairs.size());
    cache.pair_flow.resize(pairs.size());
    int64_t cursor = 0;
    for (int32_t c = 0; c < num_components; ++c) {
      const int32_t p_lo = comp_pair_begin[static_cast<size_t>(c)];
      const int32_t p_hi = comp_pair_begin[static_cast<size_t>(c) + 1];
      WarmCache::Entry entry;
      entry.begin = cursor;
      entry.count = p_hi - p_lo;
      for (int32_t p = p_lo; p < p_hi; ++p) {
        const size_t k =
            static_cast<size_t>(comp_pairs[static_cast<size_t>(p)]);
        const size_t at = static_cast<size_t>(cursor + (p - p_lo));
        cache.pair_wt[at] = pairs[k].worker_type;
        cache.pair_tt[at] = pairs[k].task_type;
        cache.pair_wcap[at] = prediction.workers_at(pairs[k].worker_type);
        cache.pair_tcap[at] = prediction.tasks_at(pairs[k].task_type);
        cache.pair_flow[at] = pair_flow[k];
      }
      cache.by_hash[comp_hash[static_cast<size_t>(c)]].push_back(c);
      cache.entries.push_back(entry);
      cursor += entry.count;
    }
  }
  refresh_stats.components_solved =
      refresh_stats.components_total - refresh_stats.components_reused;
  refresh_stats.warm = refresh_stats.components_reused > 0;
  last_refresh_stats_ = refresh_stats;

  // ---- Deterministic merge: realize matches in the original pair order,
  // handing out nodes with per-type cursors.
  std::vector<int32_t>& worker_cursor = scratch.worker_cursor;
  std::vector<int32_t>& task_cursor = scratch.task_cursor;
  worker_cursor.assign(static_cast<size_t>(num_types), 0);
  task_cursor.assign(static_cast<size_t>(num_types), 0);
  for (size_t k = 0; k < pairs.size(); ++k) {
    const int64_t flow = pair_flow[k];
    if (flow <= 0) continue;
    const TypeId wt = pairs[k].worker_type;
    const TypeId tt = pairs[k].task_type;
    const GuideNodeId w0 = guide.WorkerNodesOfType(wt).first;
    const GuideNodeId r0 = guide.TaskNodesOfType(tt).first;
    for (int64_t u = 0; u < flow; ++u) {
      const GuideNodeId w = w0 + worker_cursor[static_cast<size_t>(wt)]++;
      const GuideNodeId r = r0 + task_cursor[static_cast<size_t>(tt)]++;
      FTOA_RETURN_NOT_OK(guide.MatchNodes(w, r));
    }
  }
  return guide;
}

Result<OfflineGuide> GuideGenerator::Generate(
    const PredictionMatrix& prediction) const {
  const double rate = options_.approx_sample_rate;
  if (!(rate > 0.0 && rate <= 1.0)) {
    return Status::InvalidArgument(
        "GuideOptions::approx_sample_rate must be in (0, 1]");
  }
  const bool approx = rate < 1.0;
  // The one enumeration of this call; every route below consumes it.
  const std::vector<TypePairEdge>& pairs = FeasibleTypePairs(prediction);
  switch (options_.engine) {
    case GuideOptions::Engine::kFordFulkerson:
    case GuideOptions::Engine::kDinic:
      if (approx) {
        return Status::InvalidArgument(
            "GuideGenerator: approx_sample_rate < 1 requires a compressed "
            "engine (kCompressed, kCompressedMinCost, or kAuto)");
      }
      return GenerateNodeLevel(
          prediction, pairs,
          /*use_dinic=*/options_.engine == GuideOptions::Engine::kDinic);
    case GuideOptions::Engine::kCompressed:
      return GenerateCompressed(prediction, pairs, /*minimize_cost=*/false);
    case GuideOptions::Engine::kCompressedMinCost:
      return GenerateCompressed(prediction, pairs, /*minimize_cost=*/true);
    case GuideOptions::Engine::kAuto:
      // The sampled network is the compressed engines' pair list.
      if (!approx && NodeLevelEdges(prediction, pairs) <=
                         options_.node_level_edge_limit) {
        return GenerateNodeLevel(prediction, pairs, /*use_dinic=*/true);
      }
      return GenerateCompressed(prediction, pairs, /*minimize_cost=*/false);
  }
  return Status::Internal("GuideGenerator: unknown engine");
}

}  // namespace ftoa
