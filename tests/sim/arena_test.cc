#include "src/sim/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace e2e {
namespace {

// Endpoint-sized payload that records its destruction order.
struct Tracked {
  Tracked(int id, std::vector<int>* destroyed) : id(id), destroyed(destroyed) {}
  ~Tracked() { destroyed->push_back(id); }
  int id;
  std::vector<int>* destroyed;
  unsigned char payload[2048] = {};
};

TEST(ObjectArenaTest, ReservesAtMostTwicePlacedBytes) {
  for (const size_t n : {size_t{1}, size_t{3}, size_t{200}}) {
    std::vector<int> destroyed;
    ObjectArena<Tracked> arena;
    EXPECT_EQ(arena.bytes_reserved(), 0u);
    for (size_t i = 0; i < n; ++i) {
      arena.New(static_cast<int>(i), &destroyed);
    }
    EXPECT_EQ(arena.size(), n);
    EXPECT_GE(arena.bytes_reserved(), n * sizeof(Tracked)) << n << " objects";
    EXPECT_LE(arena.bytes_reserved(), 2 * n * sizeof(Tracked)) << n << " objects";
  }
}

TEST(ObjectArenaTest, AddressesStableAcrossGrowth) {
  ObjectArena<uint64_t, 8> arena;
  std::vector<uint64_t*> objects;
  for (uint64_t i = 0; i < 100; ++i) {
    objects.push_back(arena.New(i * 7));
  }
  for (uint64_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(*objects[i], i * 7);
    for (uint64_t j = 0; j < i; ++j) {
      ASSERT_NE(objects[i], objects[j]);
    }
  }
}

TEST(ObjectArenaTest, DestroysInReverseOrder) {
  std::vector<int> destroyed;
  {
    ObjectArena<Tracked, 4> arena;
    for (int i = 0; i < 11; ++i) {  // Chunks of 1, 2, 4, 4 (last one partial).
      arena.New(i, &destroyed);
    }
    EXPECT_TRUE(destroyed.empty());
  }
  std::vector<int> expected;
  for (int i = 10; i >= 0; --i) {
    expected.push_back(i);
  }
  EXPECT_EQ(destroyed, expected);
}

}  // namespace
}  // namespace e2e
