#include "serve/object_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "util/rng.h"

namespace ftoa {
namespace {

struct Payload {
  int64_t value = 0;
};

TEST(ObjectTableTest, RandomAppendFreeMatchesMapOracle) {
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    ObjectTable<Payload> table;
    std::map<int64_t, int64_t> oracle;
    int64_t end = 0;
    for (int step = 0; step < 4000; ++step) {
      // Mostly-FIFO frees (expiry) mixed with random ones (matches), and
      // bursts that empty the table.
      const int64_t op = rng.NextInt(0, 9);
      if (op < 5 || oracle.empty()) {
        const int64_t value = static_cast<int64_t>(rng.NextBounded(1000));
        const int64_t id = table.Append(Payload{value});
        ASSERT_EQ(id, end);
        oracle[id] = value;
        ++end;
      } else if (op < 7) {
        table.Free(oracle.begin()->first);
        oracle.erase(oracle.begin());
      } else if (op < 9) {
        const int64_t id = rng.NextInt(0, end - 1);
        table.Free(id);  // May already be freed: a no-op then.
        oracle.erase(id);
      } else if (rng.NextBool(0.05)) {
        while (!oracle.empty()) {
          table.Free(oracle.begin()->first);
          oracle.erase(oracle.begin());
        }
      }
      ASSERT_EQ(table.size(), static_cast<int64_t>(oracle.size()));
      // Every present id is still found (the base never passed it), with
      // its own record.
      for (const auto& [id, value] : oracle) {
        const Payload* found = table.Find(id);
        ASSERT_NE(found, nullptr) << "seed " << seed << " id " << id;
        ASSERT_EQ(found->value, value);
      }
      // Only present ids are found; below the base and past the end are
      // null.
      const int64_t probe = rng.NextInt(-3, end + 3);
      EXPECT_EQ(table.Find(probe) != nullptr, oracle.count(probe) > 0)
          << "seed " << seed << " probe " << probe;
      EXPECT_EQ(table.Find(-1), nullptr);
      EXPECT_EQ(table.Find(end), nullptr);
    }
  }
}

TEST(ObjectTableTest, FreedPrefixIsReclaimedAndIdsStayDense) {
  ObjectTable<Payload> table;
  for (int64_t i = 0; i < 100; ++i) ASSERT_EQ(table.Append(Payload{i}), i);
  for (int64_t i = 0; i < 100; ++i) table.Free(i);
  EXPECT_EQ(table.size(), 0);
  EXPECT_EQ(table.Find(0), nullptr);
  EXPECT_EQ(table.Find(99), nullptr);
  // Ids continue after the freed prefix.
  EXPECT_EQ(table.Append(Payload{7}), 100);
  ASSERT_NE(table.Find(100), nullptr);
  EXPECT_EQ(table.Find(100)->value, 7);
  table.Free(100);
  table.Free(100);  // Double free is a no-op.
  EXPECT_EQ(table.size(), 0);
}

}  // namespace
}  // namespace ftoa
