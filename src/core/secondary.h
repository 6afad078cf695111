// A diablo Secondary (§4): holds a pre-encoded transaction schedule, spawns
// logical worker clients and submits each transaction at its scheduled
// time, warning when it falls behind. Submissions are batched: one heap
// event per second of schedule triggers that second's transactions, each
// with its exact scheduled submission timestamp. The client puts each
// attempt's arrival at its endpoint, first or retry, on the simulation's
// arrival lane, not the event heap; only a retrying client's backoff waits
// are heap events.
#ifndef SRC_CORE_SECONDARY_H_
#define SRC_CORE_SECONDARY_H_

#include <memory>
#include <vector>

#include "src/core/interface.h"

namespace diablo {

class Secondary {
 public:
  // `client` submits every transaction. The index and location name the
  // Secondary in the paper's terms; the client already sits at the location,
  // so the Secondary keeps neither.
  Secondary(int index, Region location, Simulation* sim,
            std::unique_ptr<BlockchainClient> client);

  // Sizes the schedule for `count` transactions, so that many Assigns never
  // reallocate.
  void Reserve(size_t count) { schedule_.reserve(count); }

  // Adds one pre-signed transaction to the schedule (must be called before
  // Start, times need not be sorted).
  void Assign(SimTime submit_time, TxId tx);

  // Sorts the schedule by time, unless it is already strictly increasing,
  // and schedules the submission events.
  void Start();

  // Submissions that ran later than their scheduled second (the Secondary's
  // "too late" warning counter).
  size_t behind_schedule() const { return behind_schedule_; }

 private:
  struct Planned {
    SimTime time;
    TxId tx;
  };

  void SubmitBatch(size_t first, size_t last);

  Simulation* sim_;
  std::unique_ptr<BlockchainClient> client_;
  std::vector<Planned> schedule_;
  size_t behind_schedule_ = 0;
};

}  // namespace diablo

#endif  // SRC_CORE_SECONDARY_H_
