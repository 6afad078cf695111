#include "src/sim/simulation.h"

#include <utility>

#include "src/support/check.h"
#include "src/support/profile.h"

namespace diablo {

Simulation::Simulation(uint64_t seed) : rng_(seed) {}

Simulation::~Simulation() { profile::AddEvents(events_executed_); }

void Simulation::Schedule(SimDuration delay, EventFn fn) {
  ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

void Simulation::ScheduleAt(SimTime time, EventFn fn) {
  queue_.Push(time < now_ ? now_ : time, std::move(fn));
}

uint64_t Simulation::RunUntil(SimTime until) {
  stopped_ = false;
  uint64_t executed = 0;
  while (!queue_.empty() && !stopped_) {
    if (queue_.PeekTime() > until) {
      break;
    }
    SimTime time = 0;
    EventFn fn = queue_.Pop(&time);
    DIABLO_CHECK(time >= now_, "simulated time ran backwards");
    now_ = time;
    fn();
    ++executed;
  }
  events_executed_ += executed;
  // When stopping because the horizon was reached, advance the clock to it so
  // subsequent scheduling is relative to the horizon.
  if (!stopped_ && (queue_.empty() || queue_.PeekTime() > until) &&
      until != std::numeric_limits<SimTime>::max() && now_ < until) {
    now_ = until;
  }
  return executed;
}

}  // namespace diablo
