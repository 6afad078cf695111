// The simulation driver: a single-threaded event loop over simulated time.
//
// Every component (blockchain node, diablo secondary, the network) schedules
// closures against this loop. The loop is deterministic: same seed, same
// schedule, same results. Parallelism lives one level up, across independent
// cells (see ParallelRunner); each cell owns its own Simulation.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <limits>

#include "src/sim/event_queue.h"
#include "src/support/rng.h"
#include "src/support/time.h"

namespace diablo {

class Simulation {
 public:
  explicit Simulation(uint64_t seed);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now (delay < 0 clamps to now).
  void Schedule(SimDuration delay, EventFn fn);

  // Schedules `fn` at an absolute time (past times clamp to now).
  void ScheduleAt(SimTime time, EventFn fn);

  // Runs events until the queue drains or simulated time would pass `until`.
  // Returns the number of events executed.
  uint64_t RunUntil(SimTime until);

  // Runs until the queue drains. Returns the number of events executed.
  uint64_t Run() { return RunUntil(std::numeric_limits<SimTime>::max()); }

  // Requests that the loop stop after the current event.
  void Stop() { stopped_ = true; }

  // Pre-sizes the event heap for a known number of in-flight events.
  void Reserve(size_t events) { queue_.Reserve(events); }

  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const { return queue_.size(); }

  // Root generator; components should call ForkRng() once at construction to
  // obtain an independent stream.
  Rng ForkRng() { return rng_.Fork(); }
  Rng& rng() { return rng_; }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  bool stopped_ = false;
  uint64_t events_executed_ = 0;
  Rng rng_;
};

}  // namespace diablo

#endif  // SRC_SIM_SIMULATION_H_
