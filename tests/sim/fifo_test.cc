#include "src/sim/fifo.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

namespace e2e {
namespace {

TEST(FifoTest, EmptyFifoAllocatesNothing) {
  Fifo<std::unique_ptr<int>> fifo;
  EXPECT_TRUE(fifo.empty());
  EXPECT_EQ(fifo.size(), 0u);
  EXPECT_EQ(fifo.capacity(), 0u);
  for (auto& unused : fifo) {
    (void)unused;
    ADD_FAILURE() << "empty fifo iterated";
  }
  Fifo<std::unique_ptr<int>> moved(std::move(fifo));
  EXPECT_EQ(moved.capacity(), 0u);
}

TEST(FifoTest, KeepsOrderAcrossWrapAroundAndGrowth) {
  Fifo<std::unique_ptr<int>> fifo;
  int next_in = 0;
  int next_out = 0;
  // Interleave pushes and pops so the head walks around the ring before
  // each doubling, then drain.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      fifo.push_back(std::make_unique<int>(next_in++));
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(*fifo.front(), next_out++);
      fifo.pop_front();
    }
    ASSERT_EQ(*fifo.back(), next_in - 1);
    ASSERT_EQ(fifo.size(), static_cast<size_t>(next_in - next_out));
  }
  EXPECT_EQ(fifo.capacity(), 64u);  // 52 live at the peak: 4 -> 8 -> ... -> 64.
  Fifo<std::unique_ptr<int>> moved;
  moved = std::move(fifo);
  EXPECT_TRUE(fifo.empty());
  while (!moved.empty()) {
    ASSERT_EQ(*moved.front(), next_out++);
    moved.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(FifoTest, RangeForVisitsFrontToBack) {
  Fifo<int> fifo;
  for (int i = 0; i < 6; ++i) {
    fifo.push_back(i);
  }
  fifo.pop_front();
  fifo.pop_front();
  for (int i = 6; i < 9; ++i) {
    fifo.push_back(i);  // Wraps: capacity stays 8.
  }
  EXPECT_EQ(fifo.capacity(), 8u);
  for (int& x : fifo) {
    x *= 10;
  }
  std::vector<int> seen;
  const Fifo<int>& view = fifo;
  for (const int x : view) {
    seen.push_back(x);
  }
  EXPECT_EQ(seen, (std::vector<int>{20, 30, 40, 50, 60, 70, 80}));
}

TEST(FifoTest, PushBackOfOwnElementSurvivesGrowth) {
  Fifo<std::vector<int>> fifo;
  for (int i = 0; i < 4; ++i) {
    fifo.push_back(std::vector<int>(100, i));
  }
  ASSERT_EQ(fifo.size(), fifo.capacity());
  fifo.push_back(fifo.front());  // Copies from the buffer growth replaces.
  EXPECT_EQ(fifo.back(), std::vector<int>(100, 0));
}

// Counts live instances and destructions of each still-owning value.
struct Counted {
  static inline int live = 0;
  static inline std::vector<int> destroyed;
  explicit Counted(int id) : id(id) { ++live; }
  Counted(Counted&& other) noexcept : id(std::exchange(other.id, -1)) { ++live; }
  ~Counted() {
    --live;
    if (id >= 0) {
      destroyed.push_back(id);
    }
  }
  int id;
};

TEST(FifoTest, DestroysEveryRemainingElementExactlyOnce) {
  Counted::live = 0;
  Counted::destroyed.clear();
  {
    Fifo<Counted> fifo;
    for (int i = 0; i < 11; ++i) {
      fifo.emplace_back(i);
    }
    fifo.pop_front();
    fifo.pop_front();
    EXPECT_EQ(Counted::destroyed, (std::vector<int>{0, 1}));
  }
  EXPECT_EQ(Counted::live, 0);
  EXPECT_EQ(Counted::destroyed, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

}  // namespace
}  // namespace e2e
