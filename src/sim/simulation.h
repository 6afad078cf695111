// The simulation driver: a single-threaded event loop over simulated time.
//
// Every component (blockchain node, diablo secondary, the network) schedules
// closures against this loop. The loop is deterministic: same seed, same
// schedule, same results. Parallelism lives one level up, across independent
// cells (see ParallelRunner); each cell owns its own Simulation.
//
// Client→endpoint transaction arrivals, one per submission attempt, skip
// the event heap: they go to an arrival lane of 24-byte closure-free entries
// that RunUntil merges with the heap in (time, seq) order, with seq drawn
// from the heap's own counter. Dispatch order is therefore exactly what it
// would be with one heap event per arrival.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/time.h"

namespace diablo {

class Simulation {
 public:
  // One lane entry: transaction `tx` reaches endpoint node `endpoint` at
  // `time`.
  struct Arrival {
    SimTime time;
    uint64_t seq;
    uint32_t tx;
    uint32_t endpoint;
  };
  static_assert(sizeof(Arrival) == 24, "Simulation::Arrival layout changed");

  using ArrivalHandler = std::function<void(const Arrival&)>;

  explicit Simulation(uint64_t seed);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  SimTime Now() const { return now_; }

  // Schedules `fn` to run `delay` from now (delay < 0 clamps to now).
  void Schedule(SimDuration delay, EventFn fn);

  // Schedules `fn` at an absolute time (past times clamp to now).
  void ScheduleAt(SimTime time, EventFn fn);

  // Installs the callback that delivers lane arrivals. A simulation has at
  // most one at a time (its chain's connector); pass nullptr to remove it.
  void SetArrivalHandler(ArrivalHandler handler);

  // Queues an arrival on the lane at `time`, which must not be in the past.
  // Costs a sequence number exactly like ScheduleAt, so it fires where a
  // heap event scheduled at this point would.
  void ScheduleArrival(SimTime time, uint32_t tx, uint32_t endpoint) {
    DIABLO_CHECK(time >= now_, "arrival scheduled in the past");
    open_run_.push_back(Arrival{time, queue_.TakeSeq(), tx, endpoint});
  }

  // Runs events until the queue drains or simulated time would pass `until`.
  // Returns the number of events executed, lane arrivals included.
  uint64_t RunUntil(SimTime until);

  // Runs until the queue drains. Returns the number of events executed.
  uint64_t Run() { return RunUntil(std::numeric_limits<SimTime>::max()); }

  // Pre-sizes the event heap for a known number of in-flight events.
  void Reserve(size_t events) { queue_.Reserve(events); }

  // The first two count lane arrivals as events; the third is their share.
  uint64_t events_executed() const { return events_executed_; }
  size_t pending_events() const;
  uint64_t arrivals_delivered() const { return arrivals_delivered_; }

  // Root generator; components should call ForkRng() once at construction to
  // obtain an independent stream.
  Rng ForkRng() { return rng_.Fork(); }

 private:
  // The arrivals one event scheduled, sorted by (time, seq) and consumed
  // from `next`.
  struct SortedRun {
    std::vector<Arrival> entries;
    size_t next = 0;
  };
  // Run-heap key: the (time, seq) of run `run`'s next entry.
  struct RunHead {
    SimTime time;
    uint64_t seq;
    uint32_t run;
  };

  // Sorts the arrivals scheduled since the last call into a run and adds it
  // to the run heap.
  void SealRun();
  // Removes and returns the lane's earliest arrival.
  Arrival PopArrival();

  EventQueue queue_;
  SimTime now_ = 0;
  uint64_t events_executed_ = 0;
  Rng rng_;

  // The arrival lane.
  ArrivalHandler arrival_handler_;
  std::vector<Arrival> open_run_;
  std::vector<SortedRun> runs_;       // indexed by RunHead::run
  std::vector<uint32_t> free_runs_;   // drained slots of runs_, reused
  std::vector<RunHead> run_heap_;     // live runs, earliest head on top
  uint64_t arrivals_delivered_ = 0;
  // Checked build: merged dispatch must follow the (time, seq) total order.
  DIABLO_CHECKED_ONLY(SimTime last_time_ = 0; uint64_t last_seq_ = 0;
                      bool dispatched_any_ = false;)
};

}  // namespace diablo

#endif  // SRC_SIM_SIMULATION_H_
