// Expands a trace into concrete per-transaction submission times.
#ifndef SRC_WORKLOAD_ARRIVAL_H_
#define SRC_WORKLOAD_ARRIVAL_H_

#include <vector>

#include "src/support/rng.h"
#include "src/support/time.h"
#include "src/workload/trace.h"

namespace diablo {

enum class ArrivalProcess {
  kUniform,  // evenly paced within each second (diablo's scheduled workers)
};

// Submission times for every transaction of the trace, sorted ascending.
// The one process draws nothing, so `rng` is unused and may be null; both
// parameters stay because simbench passes them.
std::vector<SimTime> ExpandArrivals(const Trace& trace, ArrivalProcess process,
                                    Rng* rng);

}  // namespace diablo

#endif  // SRC_WORKLOAD_ARRIVAL_H_
