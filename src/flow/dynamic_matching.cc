#include "flow/dynamic_matching.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

namespace ftoa {

void DynamicBipartiteMatcher::CheckEdgeRoom(size_t num_edges) {
  if (num_edges >= kMaxEdges) {
    std::fprintf(stderr,
                 "DynamicBipartiteMatcher: %zu edges exceed int32 edge ids\n",
                 num_edges + 1);
    std::abort();
  }
}

void DynamicBipartiteMatcher::BeginSearch(StampOwner side) {
  ++augment_searches_;
  if (stamp_owner_ != side) {
    ++stamp_;
    stamp_owner_ = side;
  }
}

void DynamicBipartiteMatcher::Reset() {
  edge_left_.clear();
  edge_right_.clear();
  next_by_left_.clear();
  next_by_right_.clear();
  head_left_.clear();
  tail_left_.clear();
  head_right_.clear();
  tail_right_.clear();
  match_left_.clear();
  match_right_.clear();
  active_left_.clear();
  active_right_.clear();
  stamp_left_.clear();
  stamp_right_.clear();
  stamp_ = 0;
  stamp_owner_ = StampOwner::kNone;
  matching_size_ = 0;
  augment_searches_ = 0;
}

void DynamicBipartiteMatcher::ReserveNodes(size_t num_left,
                                           size_t num_right) {
  head_left_.reserve(num_left);
  tail_left_.reserve(num_left);
  match_left_.reserve(num_left);
  active_left_.reserve(num_left);
  stamp_left_.reserve(num_left);
  head_right_.reserve(num_right);
  tail_right_.reserve(num_right);
  match_right_.reserve(num_right);
  active_right_.reserve(num_right);
  stamp_right_.reserve(num_right);
}

void DynamicBipartiteMatcher::ReserveEdges(size_t num_edges) {
  edge_left_.reserve(num_edges);
  edge_right_.reserve(num_edges);
  next_by_left_.reserve(num_edges);
  next_by_right_.reserve(num_edges);
}

int32_t DynamicBipartiteMatcher::AddLeft() {
  const int32_t slot = num_left();
  head_left_.push_back(-1);
  tail_left_.push_back(-1);
  match_left_.push_back(-1);
  active_left_.push_back(1);
  stamp_left_.push_back(0);
  return slot;
}

int32_t DynamicBipartiteMatcher::AddRight() {
  const int32_t slot = num_right();
  head_right_.push_back(-1);
  tail_right_.push_back(-1);
  match_right_.push_back(-1);
  active_right_.push_back(1);
  stamp_right_.push_back(0);
  return slot;
}

void DynamicBipartiteMatcher::AddEdge(int32_t l, int32_t r) {
  assert(LeftActive(l) && RightActive(r));
  CheckEdgeRoom(edge_left_.size());
  // A new edge can open a path from a node an earlier search proved dead.
  stamp_owner_ = StampOwner::kNone;
  const int32_t e = static_cast<int32_t>(edge_left_.size());
  edge_left_.push_back(l);
  edge_right_.push_back(r);
  next_by_left_.push_back(-1);
  next_by_right_.push_back(-1);
  // Append (not prepend) so iteration follows insertion order: incremental
  // runs then visit candidates in the same order a fresh build would.
  if (tail_left_[static_cast<size_t>(l)] == -1) {
    head_left_[static_cast<size_t>(l)] = e;
  } else {
    next_by_left_[static_cast<size_t>(tail_left_[static_cast<size_t>(l)])] =
        e;
  }
  tail_left_[static_cast<size_t>(l)] = e;
  if (tail_right_[static_cast<size_t>(r)] == -1) {
    head_right_[static_cast<size_t>(r)] = e;
  } else {
    next_by_right_[static_cast<size_t>(
        tail_right_[static_cast<size_t>(r)])] = e;
  }
  tail_right_[static_cast<size_t>(r)] = e;
}

bool DynamicBipartiteMatcher::TryAugmentLeft(int32_t l) {
  assert(LeftActive(l));
  if (match_left_[static_cast<size_t>(l)] >= 0) return false;
  BeginSearch(StampOwner::kLeft);
  frames_.clear();
  frames_.push_back(Frame{l, head_left_[static_cast<size_t>(l)]});
  stamp_left_[static_cast<size_t>(l)] = stamp_;
  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    bool advanced = false;
    while (frame.edge != -1) {
      const int32_t e = frame.edge;
      frame.edge = next_by_left_[static_cast<size_t>(e)];
      const int32_t r = edge_right_[static_cast<size_t>(e)];
      if (!RightActive(r) || stamp_right_[static_cast<size_t>(r)] == stamp_) {
        continue;
      }
      stamp_right_[static_cast<size_t>(r)] = stamp_;
      const int32_t w = match_right_[static_cast<size_t>(r)];
      if (w < 0) {
        // Augment along the stack: each frame's left takes the right it
        // descended through; the root takes r.
        int32_t right = r;
        for (size_t i = frames_.size(); i-- > 0;) {
          const int32_t left = frames_[i].node;
          const int32_t prev_right = match_left_[static_cast<size_t>(left)];
          match_left_[static_cast<size_t>(left)] = right;
          match_right_[static_cast<size_t>(right)] = left;
          right = prev_right;
        }
        ++matching_size_;
        stamp_owner_ = StampOwner::kNone;
        return true;
      }
      frames_.push_back(Frame{w, head_left_[static_cast<size_t>(w)]});
      advanced = true;
      break;
    }
    if (!advanced) frames_.pop_back();
  }
  return false;
}

bool DynamicBipartiteMatcher::TryAugmentRight(int32_t r) {
  assert(RightActive(r));
  if (match_right_[static_cast<size_t>(r)] >= 0) return false;
  BeginSearch(StampOwner::kRight);
  frames_.clear();
  frames_.push_back(Frame{r, head_right_[static_cast<size_t>(r)]});
  stamp_right_[static_cast<size_t>(r)] = stamp_;
  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    bool advanced = false;
    while (frame.edge != -1) {
      const int32_t e = frame.edge;
      frame.edge = next_by_right_[static_cast<size_t>(e)];
      const int32_t l = edge_left_[static_cast<size_t>(e)];
      if (!LeftActive(l) || stamp_left_[static_cast<size_t>(l)] == stamp_) {
        continue;
      }
      stamp_left_[static_cast<size_t>(l)] = stamp_;
      const int32_t w = match_left_[static_cast<size_t>(l)];
      if (w < 0) {
        int32_t left = l;
        for (size_t i = frames_.size(); i-- > 0;) {
          const int32_t right = frames_[i].node;
          const int32_t prev_left = match_right_[static_cast<size_t>(right)];
          match_right_[static_cast<size_t>(right)] = left;
          match_left_[static_cast<size_t>(left)] = right;
          left = prev_left;
        }
        ++matching_size_;
        stamp_owner_ = StampOwner::kNone;
        return true;
      }
      frames_.push_back(Frame{w, head_right_[static_cast<size_t>(w)]});
      advanced = true;
      break;
    }
    if (!advanced) frames_.pop_back();
  }
  return false;
}

void DynamicBipartiteMatcher::RemoveLeft(int32_t l) {
  if (!LeftActive(l)) return;
  stamp_owner_ = StampOwner::kNone;
  active_left_[static_cast<size_t>(l)] = 0;
  const int32_t r = match_left_[static_cast<size_t>(l)];
  if (r >= 0) {
    match_left_[static_cast<size_t>(l)] = -1;
    match_right_[static_cast<size_t>(r)] = -1;
    --matching_size_;
    // One repair search from the abandoned partner restores maximality.
    TryAugmentRight(r);
  }
}

void DynamicBipartiteMatcher::RemoveRight(int32_t r) {
  if (!RightActive(r)) return;
  stamp_owner_ = StampOwner::kNone;
  active_right_[static_cast<size_t>(r)] = 0;
  const int32_t l = match_right_[static_cast<size_t>(r)];
  if (l >= 0) {
    match_right_[static_cast<size_t>(r)] = -1;
    match_left_[static_cast<size_t>(l)] = -1;
    --matching_size_;
    TryAugmentLeft(l);
  }
}

void DynamicBipartiteMatcher::RemovePair(int32_t l, int32_t r) {
  assert(match_left_[static_cast<size_t>(l)] == r);
  stamp_owner_ = StampOwner::kNone;
  match_left_[static_cast<size_t>(l)] = -1;
  match_right_[static_cast<size_t>(r)] = -1;
  active_left_[static_cast<size_t>(l)] = 0;
  active_right_[static_cast<size_t>(r)] = 0;
  --matching_size_;
}

}  // namespace ftoa
