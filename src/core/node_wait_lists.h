// NodeWaitLists: the FIFOs of unmatched objects waiting at the guide nodes
// of one side, shared by POLAR-OP and POLAR-OP+G.
//
// An object is queued at most once per guide (on arrival, at the node it
// associated with), so the lists are intrusive: a head and tail object id
// per node plus one next id per object, all sized when the session opens.
// Pushing and taking never allocate. Reset empties every list in O(nodes):
// an object's stale next id is rewritten whenever it is pushed again.

#ifndef FTOA_CORE_NODE_WAIT_LISTS_H_
#define FTOA_CORE_NODE_WAIT_LISTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/guide.h"

namespace ftoa {

class NodeWaitLists {
 public:
  static constexpr int32_t kNone = -1;

  /// Lists for `nodes` guide nodes over object ids [0, objects).
  NodeWaitLists(int64_t nodes, size_t objects)
      : ends_(static_cast<size_t>(nodes)),
        next_(static_cast<size_t>(objects), kNone) {}

  /// Empties every list and re-sizes them for a guide of `nodes` nodes.
  void Reset(int64_t nodes) { ends_.assign(static_cast<size_t>(nodes), {}); }

  /// Appends object `id` to the back of `node`'s list.
  void PushBack(GuideNodeId node, int32_t id) {
    Ends& ends = ends_[static_cast<size_t>(node)];
    next_[static_cast<size_t>(id)] = kNone;
    if (ends.tail == kNone) {
      ends.head = id;
    } else {
      next_[static_cast<size_t>(ends.tail)] = id;
    }
    ends.tail = id;
  }

  /// Walks `node`'s list front to back and returns the first object
  /// `accept(id)` takes, or kNone. The taken object and every object
  /// rejected before it leave the list; the rest keep their order.
  template <typename Accept>
  int32_t TakeFirst(GuideNodeId node, Accept&& accept) {
    // Rejected entries are unlinked as they are passed, so `prev` stays at
    // the front; keeping a rejected entry queued would advance it instead.
    const int32_t prev = kNone;
    for (int32_t id = ends_[static_cast<size_t>(node)].head; id != kNone;) {
      const int32_t next = next_[static_cast<size_t>(id)];
      const bool take = accept(id);
      Unlink(node, prev, id);
      if (take) return id;
      id = next;
    }
    return kNone;
  }

 private:
  struct Ends {
    int32_t head = kNone;
    int32_t tail = kNone;
  };

  /// Removes `id` from `node`'s list; `prev` is its predecessor there, or
  /// kNone when `id` is the head.
  void Unlink(GuideNodeId node, int32_t prev, int32_t id) {
    Ends& ends = ends_[static_cast<size_t>(node)];
    const int32_t next = next_[static_cast<size_t>(id)];
    if (prev == kNone) {
      ends.head = next;
    } else {
      next_[static_cast<size_t>(prev)] = next;
    }
    if (ends.tail == id) ends.tail = prev;
  }

  std::vector<Ends> ends_;
  std::vector<int32_t> next_;
};

/// POLAR-OP's node choice: nodes are reused, so a type's arrivals cycle
/// over all its nodes round-robin (Algorithm 3 line 3, "a node of o's
/// type"). `nodes` must be nonempty.
inline GuideNodeId NextNodeRoundRobin(GuideNodeRange nodes, uint32_t* cursor) {
  return nodes[static_cast<int32_t>((*cursor)++ %
                                    static_cast<uint32_t>(nodes.size()))];
}

}  // namespace ftoa

#endif  // FTOA_CORE_NODE_WAIT_LISTS_H_
