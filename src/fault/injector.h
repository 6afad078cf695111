// Executes a FaultSchedule against one chain deployment by translating
// every declared fault into ordinary simulation events before the run
// starts. All state changes go through the same deterministic event loop
// as the protocol itself, so a fault run replays bit-identically from its
// seed and is invariant to DIABLO_JOBS.
#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <string>

#include "src/chain/node.h"
#include "src/fault/schedule.h"

namespace diablo {

// What the injector actually did, for run summaries.
struct FaultStats {
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t partitions = 0;  // partition onsets (node sets, not nodes)
  uint64_t heals = 0;       // partition heals
  uint64_t loss_windows = 0;
  uint64_t delay_spikes = 0;
  uint64_t stragglers = 0;
  // Byzantine window onsets, by behavior.
  uint64_t equivocate_windows = 0;
  uint64_t double_vote_windows = 0;
  uint64_t withhold_windows = 0;
  uint64_t censor_windows = 0;
  uint64_t lazy_windows = 0;
};

class FaultInjector {
 public:
  FaultInjector(FaultSchedule schedule, ChainContext* ctx);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Validates the schedule against the deployment and arms every fault as
  // simulation events. Call once, before the run starts; the injector must
  // outlive the run (scheduled events point back into it). Returns false
  // and fills *error when the schedule is invalid; nothing is armed then.
  bool Install(std::string* error);

  const FaultStats& stats() const { return stats_; }

 private:
  // Node indices a partition event covers (explicit set or whole region).
  std::vector<int> PartitionNodes(const FaultEvent& event) const;

  // Adversaries a Byzantine event arms: the explicit node set, or — for a
  // fractional scope — max(1, round(fraction * n)) nodes strided evenly
  // across the deployment, so the choice is deterministic and spreads over
  // regions the way a real infiltration would.
  std::vector<int> AdversaryNodes(const FaultEvent& event) const;

  FaultSchedule schedule_;
  ChainContext* ctx_;
  FaultStats stats_;
};

}  // namespace diablo

#endif  // SRC_FAULT_INJECTOR_H_
