#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/support/rng.h"

namespace diablo {
namespace {

TEST(EventFnTest, InvokesInlineCapture) {
  int fired = 0;
  EventFn fn([&fired] { ++fired; });
  EXPECT_TRUE(static_cast<bool>(fn));
  fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventFnTest, DefaultIsEmpty) {
  EventFn fn;
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(EventFnTest, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  EventFn a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  EventFn b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(counter.use_count(), 2);
  b();
  EXPECT_EQ(*counter, 1);
  EventFn c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
}

TEST(EventFnTest, DestructionReleasesCapture) {
  auto token = std::make_shared<int>(7);
  {
    EventFn fn([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFnTest, OversizedCaptureUsesHeapAndStillRuns) {
  // Way past kInlineSize: forces the heap fallback path.
  std::array<uint64_t, 16> payload{};
  payload[0] = 41;
  payload[15] = 1;
  uint64_t out = 0;
  EventFn fn([payload, &out] { out = payload[0] + payload[15]; });
  EventFn moved(std::move(fn));
  moved();
  EXPECT_EQ(out, 42u);
}

TEST(EventFnTest, AssignmentDestroysPreviousCapture) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  EventFn fn([first] { (void)*first; });
  fn = EventFn([second] { (void)*second; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
}

TEST(EventQueueTest, OrdersByTime) {
  EventQueue queue;
  std::vector<int> fired;
  queue.Push(Seconds(3), [&] { fired.push_back(3); });
  queue.Push(Seconds(1), [&] { fired.push_back(1); });
  queue.Push(Seconds(2), [&] { fired.push_back(2); });
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesFireInInsertionOrder) {
  EventQueue queue;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    queue.Push(Seconds(1), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, PopReturnsTime) {
  EventQueue queue;
  queue.Push(Milliseconds(250), [] {});
  SimTime t = 0;
  queue.Pop(&t);
  EXPECT_EQ(t, Milliseconds(250));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, ClearResets) {
  EventQueue queue;
  queue.Push(1, [] {});
  queue.Push(2, [] {});
  queue.Clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, ClearReleasesCaptures) {
  auto token = std::make_shared<int>(0);
  EventQueue queue;
  queue.Push(1, [token] { ++*token; });
  queue.Push(2, [token] { ++*token; });
  EXPECT_EQ(token.use_count(), 3);
  queue.Clear();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, TiesFireInInsertionOrderAfterClear) {
  // Clear() resets the tie-break sequence; a reused queue must still fire
  // equal-time events in their (new) insertion order.
  EventQueue queue;
  queue.Push(5, [] {});
  queue.Clear();
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    queue.Push(Seconds(2), [&fired, i] { fired.push_back(i); });
  }
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, MixedInlineAndHeapCaptures) {
  EventQueue queue;
  queue.Reserve(64);
  std::vector<int> fired;
  std::array<int, 32> big{};
  big[31] = 2;
  queue.Push(Seconds(2), [&fired, big] { fired.push_back(big[31]); });
  queue.Push(Seconds(1), [&fired] { fired.push_back(1); });
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t)();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, LargeHeapStaysSorted) {
  EventQueue queue;
  // Push pseudo-random times, then verify pops are monotone.
  uint64_t state = 12345;
  for (int i = 0; i < 5000; ++i) {
    queue.Push(static_cast<SimTime>(SplitMix64(state) % 1000000), [] {});
  }
  SimTime prev = -1;
  while (!queue.empty()) {
    SimTime t = 0;
    queue.Pop(&t);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(SimulationTest, ClockAdvances) {
  Simulation sim(1);
  SimTime observed = -1;
  sim.Schedule(Seconds(5), [&] { observed = sim.Now(); });
  sim.Run();
  EXPECT_EQ(observed, Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(SimulationTest, NestedScheduling) {
  Simulation sim(1);
  std::vector<SimTime> times;
  sim.Schedule(Seconds(1), [&] {
    times.push_back(sim.Now());
    sim.Schedule(Seconds(1), [&] { times.push_back(sim.Now()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(times[0], Seconds(1));
  EXPECT_EQ(times[1], Seconds(2));
}

TEST(SimulationTest, RunUntilStopsAtHorizon) {
  Simulation sim(1);
  int fired = 0;
  sim.Schedule(Seconds(1), [&] { ++fired; });
  sim.Schedule(Seconds(10), [&] { ++fired; });
  const uint64_t executed = sim.RunUntil(Seconds(5));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), Seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, StopHaltsLoop) {
  Simulation sim(1);
  int fired = 0;
  sim.Schedule(Seconds(1), [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(Seconds(2), [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  // A later Run resumes with the remaining events.
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, PastSchedulesClampToNow) {
  Simulation sim(1);
  SimTime when = -1;
  sim.Schedule(Seconds(3), [&] {
    sim.ScheduleAt(Seconds(1), [&] { when = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(when, Seconds(3));
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation sim(1);
  SimTime when = -1;
  sim.Schedule(-Seconds(4), [&] { when = sim.Now(); });
  sim.Run();
  EXPECT_EQ(when, 0);
}

TEST(SimulationTest, EventCountTracked) {
  Simulation sim(1);
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(Seconds(i), [] {});
  }
  sim.Run();
  EXPECT_EQ(sim.events_executed(), 7u);
}

TEST(SimulationTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Simulation sim(seed);
    Rng rng = sim.ForkRng();
    std::vector<uint64_t> draws;
    for (int i = 0; i < 10; ++i) {
      sim.Schedule(Seconds(i), [&] { draws.push_back(rng.NextU64()); });
    }
    sim.Run();
    return draws;
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99), run(100));
}

}  // namespace
}  // namespace diablo
