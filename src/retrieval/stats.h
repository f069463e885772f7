// Per-query instrumentation of the candidate retrieval engine
// (retrieval/candidate_engine.h): how much of the index a query actually
// touched. The counters are plain integers and the per-query cells-visited
// distribution is a fixed geometric histogram, so stats merge
// deterministically across sessions and shards (elementwise addition, max
// for the tail witness) — the same contract as the other RunTrace counters.

#ifndef FTOA_RETRIEVAL_STATS_H_
#define FTOA_RETRIEVAL_STATS_H_

#include <algorithm>
#include <array>
#include <cstdint>

namespace ftoa {

/// Counters accumulated by every CandidateCursor query. A cursor writes
/// into the RetrievalStats sink it was constructed with, so a session can
/// point its cursors straight at its RunTrace and never copy.
struct RetrievalStats {
  /// Queries answered (Nearest / TopK / disk enumerations).
  int64_t queries = 0;
  /// Grid cells whose bucket was scanned, summed over queries. Cells
  /// rejected by the radius lower bound are not counted — not visiting
  /// them is the point of the engine.
  int64_t cells_visited = 0;
  /// Entries whose distance was evaluated (post time-window binary search).
  int64_t candidates_examined = 0;
  /// Examined entries rejected by the engine's own pruning (expired
  /// deadline, beyond the current distance bound, or worse than the
  /// current top-k tail) before the caller's filter ran.
  int64_t candidates_pruned = 0;
  /// Entries a waiting pool's ExpireBefore erased (deadline passed).
  int64_t expired = 0;

  /// Per-query cells-visited histogram. Bucket b counts queries that
  /// visited at most kCellsBucketBound(b) cells; the last bucket is
  /// unbounded and max_cells_visited witnesses its tail exactly.
  static constexpr int kNumCellsBuckets = 16;
  std::array<int64_t, kNumCellsBuckets> cells_visited_hist{};
  int64_t max_cells_visited = 0;

  /// Upper bound of histogram bucket `b`: 1, 2, 4, ..., 2^14; the last
  /// bucket is open-ended.
  static constexpr int64_t CellsBucketBound(int b) {
    return int64_t{1} << b;
  }

  /// Records one finished query that visited `cells` cells, examined
  /// `examined` entries, and pruned `pruned` of them.
  void RecordQuery(int64_t cells, int64_t examined, int64_t pruned) {
    ++queries;
    cells_visited += cells;
    candidates_examined += examined;
    candidates_pruned += pruned;
    max_cells_visited = std::max(max_cells_visited, cells);
    int bucket = 0;
    while (bucket < kNumCellsBuckets - 1 && cells > CellsBucketBound(bucket)) {
      ++bucket;
    }
    ++cells_visited_hist[static_cast<size_t>(bucket)];
  }

  /// Accumulates `other` into this (counters and histogram add, tail
  /// witness by max) — the shard-merge operation.
  void Absorb(const RetrievalStats& other) {
    queries += other.queries;
    cells_visited += other.cells_visited;
    candidates_examined += other.candidates_examined;
    candidates_pruned += other.candidates_pruned;
    expired += other.expired;
    max_cells_visited = std::max(max_cells_visited, other.max_cells_visited);
    for (int b = 0; b < kNumCellsBuckets; ++b) {
      cells_visited_hist[static_cast<size_t>(b)] +=
          other.cells_visited_hist[static_cast<size_t>(b)];
    }
  }

  /// Nearest-rank percentile of the per-query cells-visited distribution,
  /// read off the histogram: the bucket upper bound covering the rank (the
  /// open tail bucket reports max_cells_visited exactly). 0 when no
  /// queries were recorded. `p` in [0, 1].
  int64_t CellsVisitedPercentile(double p) const {
    if (queries <= 0) return 0;
    const int64_t rank = std::max<int64_t>(
        1, static_cast<int64_t>(p * static_cast<double>(queries) + 0.5));
    int64_t seen = 0;
    for (int b = 0; b < kNumCellsBuckets; ++b) {
      seen += cells_visited_hist[static_cast<size_t>(b)];
      if (seen >= rank) {
        return b == kNumCellsBuckets - 1
                   ? max_cells_visited
                   : std::min(max_cells_visited, CellsBucketBound(b));
      }
    }
    return max_cells_visited;
  }
};

}  // namespace ftoa

#endif  // FTOA_RETRIEVAL_STATS_H_
