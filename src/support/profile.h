// Lightweight per-subsystem counters behind DIABLO_PROFILE=1.
//
// Every binary accumulates events executed, arrival-lane deliveries, vote
// rounds and the receivers they evaluate, sortition draws and VM ops into
// process-wide relaxed atomics; when the environment variable
// DIABLO_PROFILE=1 is set, a summary line is printed to stderr at process
// exit. stdout is never touched, so profiled runs stay byte-identical to
// unprofiled ones. Counters are fed at cold points (the simulation
// destructor, once per vote-round kernel call, once per committee or
// proposer selection, once per contract execution) — the hot loops
// themselves carry no instrumentation.
#ifndef SRC_SUPPORT_PROFILE_H_
#define SRC_SUPPORT_PROFILE_H_

#include <cstdint>

namespace diablo::profile {

void AddEvents(uint64_t n);
void AddArrivals(uint64_t n);
void CountVoteRound();
// Receivers one vote-round kernel call evaluated.
void AddVoteReceivers(uint64_t n);
// Participants drawn by one SelectCommitteeInto or SelectProposer call.
void AddSortitionDraws(uint64_t n);
void AddVmOps(uint64_t n);

// The process-wide totals so far, as the exit summary prints them.
struct Counters {
  uint64_t events = 0;
  uint64_t arrivals = 0;
  uint64_t vote_rounds = 0;
  uint64_t vote_receivers = 0;
  uint64_t sortition_draws = 0;
  uint64_t vm_ops = 0;
};
Counters Totals();

// Peak resident set size of this process in bytes (getrusage), 0 when the
// platform cannot report it.
int64_t PeakRssBytes();

}  // namespace diablo::profile

#endif  // SRC_SUPPORT_PROFILE_H_
