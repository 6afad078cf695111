#include "src/workload/arrival.h"

#include <algorithm>

#include "src/support/check.h"

namespace diablo {

std::vector<SimTime> ExpandArrivals(const Trace& trace, ArrivalProcess /*process*/,
                                    Rng* /*rng*/) {
  std::vector<SimTime> arrivals;
  arrivals.reserve(static_cast<size_t>(trace.TotalTxs()) + trace.duration_seconds());
  // Fractional per-second rates accumulate so that e.g. 0.5 TPS sends one
  // transaction every two seconds instead of none.
  double carry = 0.0;
  for (size_t s = 0; s < trace.tps.size(); ++s) {
    const double rate = trace.tps[s] + carry;
    const int64_t count = static_cast<int64_t>(rate);
    carry = rate - static_cast<double>(count);
    if (count <= 0) {
      continue;
    }
    const SimTime base = Seconds(static_cast<int64_t>(s));
    const double step = 1e9 / static_cast<double>(count);
    for (int64_t i = 0; i < count; ++i) {
      arrivals.push_back(base + static_cast<SimTime>(step * static_cast<double>(i)));
    }
  }
  // Already ascending: each second's times lie in [base, base + 1 s) in
  // the order of i, and seconds ascend.
  DIABLO_CHECK(std::is_sorted(arrivals.begin(), arrivals.end()),
               "ExpandArrivals produced unsorted times");
  return arrivals;
}

}  // namespace diablo
