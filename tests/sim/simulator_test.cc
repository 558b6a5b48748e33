#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace e2e {
namespace {

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<int64_t> seen;
  sim.Schedule(Duration::Micros(5), [&] { seen.push_back(sim.Now().nanos()); });
  sim.Schedule(Duration::Micros(2), [&] { seen.push_back(sim.Now().nanos()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<int64_t>{2000, 5000}));
  EXPECT_EQ(sim.Now(), TimePoint::FromNanos(5000));
}

TEST(SimulatorTest, NestedSchedulingFromCallbacks) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 5) {
      sim.Schedule(Duration::Micros(1), recur);
    }
  };
  sim.Schedule(Duration::Micros(1), recur);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), TimePoint::FromNanos(5000));
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadlineEvenWhenIdle) {
  Simulator sim;
  sim.RunUntil(TimePoint::FromNanos(1234));
  EXPECT_EQ(sim.Now(), TimePoint::FromNanos(1234));
}

TEST(SimulatorTest, RunUntilExecutesOnlyEventsWithinDeadline) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Micros(1), [&] { ++fired; });
  sim.Schedule(Duration::Micros(10), [&] { ++fired; });
  sim.RunUntil(TimePoint::FromNanos(5000));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventAtDeadlineBoundaryFires) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Duration::Micros(5), [&] { fired = true; });
  sim.RunUntil(TimePoint::FromNanos(5000));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, ZeroDelayFiresAfterPendingSameInstantEvents) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Zero(), [&] {
    order.push_back(1);
    sim.Schedule(Duration::Zero(), [&] { order.push_back(3); });
  });
  sim.Schedule(Duration::Zero(), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, CancelWorks) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.Schedule(Duration::Micros(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CountsEventsFired) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Duration::Micros(i + 1), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_fired(), 7u);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  sim.RunFor(Duration::Micros(10));
  sim.RunFor(Duration::Micros(10));
  EXPECT_EQ(sim.Now(), TimePoint::FromNanos(20000));
}

}  // namespace
}  // namespace e2e
