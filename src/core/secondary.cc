#include "src/core/secondary.h"

#include <algorithm>

namespace diablo {

Secondary::Secondary(int /*index*/, Region /*location*/, Simulation* sim,
                     std::unique_ptr<BlockchainClient> client)
    : sim_(sim), client_(std::move(client)) {}

void Secondary::Assign(SimTime submit_time, TxId tx) {
  schedule_.push_back(Planned{submit_time, tx});
}

void Secondary::Start() {
  // Entries with equal times keep the order std::sort gives them, so only
  // a strictly increasing schedule (every single-stream run's) skips it.
  const auto not_increasing = [](const Planned& a, const Planned& b) {
    return a.time >= b.time;
  };
  if (std::adjacent_find(schedule_.begin(), schedule_.end(), not_increasing) !=
      schedule_.end()) {
    std::sort(schedule_.begin(), schedule_.end(),
              [](const Planned& a, const Planned& b) { return a.time < b.time; });
  }
  // One event per second of schedule; the batch submits every transaction
  // of that second with its precise timestamp.
  size_t first = 0;
  while (first < schedule_.size()) {
    const SimTime second_start =
        (schedule_[first].time / kSecond) * kSecond;
    size_t last = first;
    while (last < schedule_.size() && schedule_[last].time < second_start + kSecond) {
      ++last;
    }
    sim_->ScheduleAt(second_start, [this, first, last] { SubmitBatch(first, last); });
    first = last;
  }
}

void Secondary::SubmitBatch(size_t first, size_t last) {
  const SimTime now = sim_->Now();
  for (size_t i = first; i < last; ++i) {
    const Planned& planned = schedule_[i];
    if (now > planned.time + kSecond) {
      ++behind_schedule_;
    }
    client_->Trigger(planned.tx, planned.time);
  }
}

}  // namespace diablo
