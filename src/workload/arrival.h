// Walks a trace's per-transaction submission times.
#ifndef SRC_WORKLOAD_ARRIVAL_H_
#define SRC_WORKLOAD_ARRIVAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/support/rng.h"
#include "src/support/time.h"
#include "src/workload/trace.h"

namespace diablo {

enum class ArrivalProcess {
  kUniform,  // evenly paced within each second (diablo's scheduled workers)
};

// Transactions a second at `tps` sends. Fractional rates accumulate in
// `*carry`, which starts at 0, so that e.g. 0.5 TPS sends one transaction
// every two seconds instead of none.
inline int64_t ArrivalsInSecond(double tps, double* carry) {
  const double rate = tps + *carry;
  const int64_t count = static_cast<int64_t>(rate);
  *carry = rate - static_cast<double>(count);
  return count;
}

// Calls `fn(time)` with the submission time of every transaction of the
// trace, ascending, each second's evenly paced from the second's start. Stops
// at the first call that returns false, and returns whether none did.
template <typename Fn>
bool ForEachArrival(const Trace& trace, Fn&& fn) {
  double carry = 0.0;
  for (size_t s = 0; s < trace.tps.size(); ++s) {
    const int64_t count = ArrivalsInSecond(trace.tps[s], &carry);
    if (count <= 0) {
      continue;
    }
    const SimTime base = Seconds(static_cast<int64_t>(s));
    const double step = 1e9 / static_cast<double>(count);
    for (int64_t i = 0; i < count; ++i) {
      if (!fn(base + static_cast<SimTime>(step * static_cast<double>(i)))) {
        return false;
      }
    }
  }
  return true;
}

// How many times ForEachArrival(trace, …) yields.
size_t CountArrivals(const Trace& trace);

// ForEachArrival's times in one vector. The one process draws nothing, so
// `rng` is unused and may be null; both parameters stay because simbench
// passes them.
std::vector<SimTime> ExpandArrivals(const Trace& trace, ArrivalProcess process,
                                    Rng* rng);

}  // namespace diablo

#endif  // SRC_WORKLOAD_ARRIVAL_H_
