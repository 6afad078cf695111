#include "src/workload/arrival.h"

#include <algorithm>

#include "src/support/check.h"

namespace diablo {

size_t CountArrivals(const Trace& trace) {
  size_t total = 0;
  double carry = 0.0;
  for (const double tps : trace.tps) {
    total += static_cast<size_t>(std::max<int64_t>(0, ArrivalsInSecond(tps, &carry)));
  }
  return total;
}

std::vector<SimTime> ExpandArrivals(const Trace& trace, ArrivalProcess /*process*/,
                                    Rng* /*rng*/) {
  std::vector<SimTime> arrivals;
  arrivals.reserve(CountArrivals(trace));
  ForEachArrival(trace, [&arrivals](SimTime time) {
    arrivals.push_back(time);
    return true;
  });
  // Already ascending: each second's times lie in [base, base + 1 s) in
  // the order of i, and seconds ascend.
  DIABLO_CHECK(std::is_sorted(arrivals.begin(), arrivals.end()),
               "ExpandArrivals produced unsorted times");
  return arrivals;
}

}  // namespace diablo
