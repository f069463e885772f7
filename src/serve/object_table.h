// ObjectTable: the serving loop's record store, indexed by stream id.
//
// Stream ids are handed out densely in admission order, so a record lives
// at slot `id - base` of one contiguous array: Append always lands at the
// end, Find is an index plus a present flag, and Free clears the flag.
// When the oldest record is freed the base advances past the freed
// prefix, and once that prefix is at least half the array the survivors
// slide down in place (amortized O(1) per record, no reallocation). The
// array therefore spans from the oldest present record to the newest one;
// it never allocates a node per record.

#ifndef FTOA_SERVE_OBJECT_TABLE_H_
#define FTOA_SERVE_OBJECT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftoa {

template <typename Record>
class ObjectTable {
 public:
  /// Stores `record` under the next id (one past the newest) and returns
  /// that id. Ids start at 0.
  int64_t Append(const Record& record) {
    slots_.push_back(Slot{record, true});
    ++size_;
    return base_ + static_cast<int64_t>(slots_.size() - head_) - 1;
  }

  /// The record of `id`, or null when it was freed or never appended.
  const Record* Find(int64_t id) const {
    if (id < base_) return nullptr;
    const size_t index = head_ + static_cast<size_t>(id - base_);
    if (index >= slots_.size() || !slots_[index].present) return nullptr;
    return &slots_[index].record;
  }

  /// Frees the record of `id`; a no-op when it is not present.
  void Free(int64_t id) {
    if (id < base_) return;
    const size_t index = head_ + static_cast<size_t>(id - base_);
    if (index >= slots_.size() || !slots_[index].present) return;
    slots_[index].present = false;
    --size_;
    while (head_ < slots_.size() && !slots_[head_].present) {
      ++head_;
      ++base_;
    }
    if (2 * head_ >= slots_.size()) {
      slots_.erase(slots_.begin(),
                   slots_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Records present (appended and not freed).
  int64_t size() const { return size_; }

 private:
  struct Slot {
    Record record;
    bool present = false;
  };

  std::vector<Slot> slots_;
  size_t head_ = 0;    ///< Slot of id base_; the slots before it are dead.
  int64_t base_ = 0;   ///< Lowest id that may still be present.
  int64_t size_ = 0;
};

}  // namespace ftoa

#endif  // FTOA_SERVE_OBJECT_TABLE_H_
