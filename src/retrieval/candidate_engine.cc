#include "retrieval/candidate_engine.h"

#include <cstdio>
#include <cstdlib>

namespace ftoa {

CandidateStore::CandidateStore(const GridSpec& grid)
    : grid_(grid),
      buckets_(static_cast<size_t>(grid.num_cells())),
      live_(static_cast<size_t>(grid.num_cells()), 0) {}

void CandidateStore::Insert(const RetrievalCandidate& candidate) {
  if (candidate.id < 0 ||
      candidate.id > std::numeric_limits<int32_t>::max()) {
    std::fprintf(stderr,
                 "CandidateStore: id %lld is not a dense non-negative "
                 "instance id\n",
                 static_cast<long long>(candidate.id));
    std::abort();
  }
  const size_t index = static_cast<size_t>(candidate.id);
  if (index >= locator_.size()) {
    locator_.resize(index + 1);
  } else if (locator_[index].cell >= 0) {
    Erase(candidate.id);
  }
  const CellId cell = grid_.CellOf(candidate.location);
  std::vector<RetrievalCandidate>& bucket =
      buckets_[static_cast<size_t>(cell)];
  ++live_[static_cast<size_t>(cell)];
  ++size_;
  // Arrival-ordered inserts append; out-of-order inserts pay a sorted
  // insertion that keeps the (start, id) invariant (tombstones keep their
  // start, so they never break the order).
  const auto before = [](const RetrievalCandidate& a,
                         const RetrievalCandidate& b) {
    return a.start < b.start || (a.start == b.start && a.id < b.id);
  };
  if (bucket.empty() || !before(candidate, bucket.back())) {
    locator_[index] = Slot{cell, static_cast<int32_t>(bucket.size())};
    bucket.push_back(candidate);
    return;
  }
  const auto pos =
      std::upper_bound(bucket.begin(), bucket.end(), candidate, before);
  const int32_t offset = static_cast<int32_t>(pos - bucket.begin());
  bucket.insert(pos, candidate);
  locator_[index] = Slot{cell, offset};
  // Entries after the insertion point shifted by one.
  for (size_t i = static_cast<size_t>(offset) + 1; i < bucket.size(); ++i) {
    if (bucket[i].id >= 0) {
      locator_[static_cast<size_t>(bucket[i].id)].offset =
          static_cast<int32_t>(i);
    }
  }
}

bool CandidateStore::Erase(int64_t id) {
  if (!Contains(id)) return false;
  Slot& slot = locator_[static_cast<size_t>(id)];
  const CellId cell = slot.cell;
  std::vector<RetrievalCandidate>& bucket =
      buckets_[static_cast<size_t>(cell)];
  bucket[static_cast<size_t>(slot.offset)].id = -1;
  slot.cell = -1;
  --size_;
  const int32_t live = --live_[static_cast<size_t>(cell)];
  // Compact once half the bucket is tombstones (and it is worth the walk):
  // scans stay O(live) amortized and the sort order is preserved.
  const size_t dead = bucket.size() - static_cast<size_t>(live);
  if (dead >= 8 && dead * 2 >= bucket.size()) CompactBucket(cell);
  return true;
}

void CandidateStore::CompactBucket(CellId cell) {
  std::vector<RetrievalCandidate>& bucket =
      buckets_[static_cast<size_t>(cell)];
  size_t write = 0;
  for (size_t read = 0; read < bucket.size(); ++read) {
    if (bucket[read].id < 0) continue;
    bucket[write] = bucket[read];
    locator_[static_cast<size_t>(bucket[write].id)].offset =
        static_cast<int32_t>(write);
    ++write;
  }
  bucket.resize(write);
}

}  // namespace ftoa
