#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"
#include "src/support/check.h"
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

// --- the arrival lane ---------------------------------------------------------

// Records every dispatch as (time, id): lane arrivals carry their tx field,
// heap events the id they were scheduled with.
struct DispatchLog {
  std::vector<std::pair<SimTime, uint32_t>> entries;

  void Attach(Simulation* sim) {
    sim->SetArrivalHandler([this](const Simulation::Arrival& arrival) {
      entries.emplace_back(arrival.time, arrival.tx);
    });
  }
  EventFn Event(Simulation* sim, uint32_t id) {
    return [this, sim, id] { entries.emplace_back(sim->Now(), id); };
  }
  std::vector<uint32_t> ids() const {
    std::vector<uint32_t> out;
    for (const auto& entry : entries) {
      out.push_back(entry.second);
    }
    return out;
  }
};

TEST(ArrivalLaneTest, TiesWithHeapEventsFireInSchedulingOrder) {
  Simulation sim(1);
  DispatchLog log;
  log.Attach(&sim);
  // Arrival scheduled first, then a heap event at the same time; then the
  // other way round.
  sim.ScheduleArrival(Seconds(1), 1, 0);
  sim.ScheduleAt(Seconds(1), log.Event(&sim, 2));
  sim.ScheduleAt(Seconds(2), log.Event(&sim, 3));
  sim.ScheduleArrival(Seconds(2), 4, 0);
  sim.Run();
  EXPECT_EQ(log.ids(), (std::vector<uint32_t>{1, 2, 3, 4}));
}

TEST(ArrivalLaneTest, OneEventsArrivalsComeOutSorted) {
  Simulation sim(1);
  DispatchLog log;
  log.Attach(&sim);
  // Nearly sorted (the insertion-sort path), with a tie that must keep
  // scheduling order.
  sim.ScheduleAt(0, [&sim] {
    sim.ScheduleArrival(Milliseconds(30), 3, 0);
    sim.ScheduleArrival(Milliseconds(10), 1, 0);
    sim.ScheduleArrival(Milliseconds(20), 2, 0);
    sim.ScheduleArrival(Milliseconds(30), 4, 0);
  });
  // Fully reversed (past the insertion-sort budget).
  sim.ScheduleAt(Seconds(1), [&sim] {
    for (uint32_t i = 0; i < 500; ++i) {
      sim.ScheduleArrival(Seconds(2) - Milliseconds(i), 1000 + i, 0);
    }
  });
  sim.Run();
  std::vector<uint32_t> want = {1, 2, 3, 4};
  for (uint32_t i = 500; i-- > 0;) {
    want.push_back(1000 + i);
  }
  EXPECT_EQ(log.ids(), want);
  EXPECT_TRUE(std::is_sorted(log.entries.begin(), log.entries.end(),
                             [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(ArrivalLaneTest, RunsFromSeveralEventsInterleave) {
  Simulation sim(1);
  DispatchLog log;
  log.Attach(&sim);
  // Three batches whose arrivals overlap in time, plus heap events between
  // them.
  for (uint32_t batch = 0; batch < 3; ++batch) {
    sim.ScheduleAt(Milliseconds(batch), [&sim, batch] {
      for (uint32_t k = 0; k < 4; ++k) {
        sim.ScheduleArrival(Milliseconds(10 + 10 * k + batch), 100 * batch + k, 0);
      }
    });
  }
  sim.ScheduleAt(Milliseconds(25), log.Event(&sim, 7));
  sim.Run();
  EXPECT_EQ(log.ids(), (std::vector<uint32_t>{0, 100, 200, 1, 101, 201, 7, 2, 102, 202, 3,
                                              103, 203}));
}

TEST(ArrivalLaneTest, MatchesOneHeapEventPerArrival) {
  // The same random schedule twice: arrivals on the lane, then arrivals as
  // plain heap events. Millisecond times make ties common.
  auto run = [](bool lane) {
    Simulation sim(1);
    DispatchLog log;
    log.Attach(&sim);
    Rng rng(42);
    uint32_t next_id = 0;
    auto arrive = [&](SimTime at) {
      const uint32_t id = next_id++;
      if (lane) {
        sim.ScheduleArrival(at, id, 0);
      } else {
        sim.ScheduleAt(at, [&log, at, id] { log.entries.emplace_back(at, id); });
      }
    };
    for (int second = 0; second < 5; ++second) {
      sim.ScheduleAt(Seconds(second), [&, second] {
        for (int k = 0; k < 200; ++k) {
          arrive(Seconds(second) + Milliseconds(static_cast<int64_t>(rng.NextBelow(1500))));
        }
      });
      for (int k = 0; k < 20; ++k) {
        const uint32_t id = next_id++;
        sim.ScheduleAt(Milliseconds(static_cast<int64_t>(rng.NextBelow(6000))), [&, id] {
          log.entries.emplace_back(sim.Now(), id);
          arrive(sim.Now() + Milliseconds(static_cast<int64_t>(rng.NextBelow(3))));
        });
      }
    }
    sim.Run();
    return log.entries;
  };
  const auto with_lane = run(true);
  EXPECT_EQ(with_lane.size(), 5u * 200 + 5 * 20 * 2);
  EXPECT_EQ(with_lane, run(false));
}

TEST(ArrivalLaneTest, ArrivalsPastTheHorizonStayPending) {
  Simulation sim(1);
  DispatchLog log;
  log.Attach(&sim);
  sim.ScheduleArrival(Seconds(1), 1, 0);
  sim.ScheduleArrival(Seconds(9), 2, 0);
  EXPECT_EQ(sim.RunUntil(Seconds(5)), 1u);
  EXPECT_EQ(sim.Now(), Seconds(5));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.RunUntil(Seconds(10)), 1u);
  EXPECT_EQ(log.entries, (std::vector<std::pair<SimTime, uint32_t>>{{Seconds(1), 1},
                                                                    {Seconds(9), 2}}));
}

TEST(ArrivalLaneTest, EventCountsIncludeArrivals) {
  Simulation sim(1);
  DispatchLog log;
  log.Attach(&sim);
  sim.ScheduleAt(Seconds(1), [&sim] {
    sim.ScheduleArrival(Seconds(2), 1, 0);
    sim.ScheduleArrival(Seconds(3), 2, 0);
  });
  sim.ScheduleArrival(Seconds(4), 3, 0);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(sim.events_executed(), 4u);
  EXPECT_EQ(sim.arrivals_delivered(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ArrivalLaneDeathTest, SecondHandlerAbortsUnderCheckedBuild) {
  if (!kCheckedBuild) {
    GTEST_SKIP() << "checks compile to no-ops without DIABLO_CHECKED";
  }
  Simulation sim(1);
  sim.SetArrivalHandler([](const Simulation::Arrival&) {});
  EXPECT_DEATH(sim.SetArrivalHandler([](const Simulation::Arrival&) {}),
               "one arrival handler at a time");
}

}  // namespace
}  // namespace diablo
