#include "src/workload/arrival.h"

#include <algorithm>
#include <cmath>

#include "src/support/check.h"

namespace diablo {

std::vector<SimTime> ExpandArrivals(const Trace& trace, ArrivalProcess process,
                                    Rng* rng) {
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
    if (process == ArrivalProcess::kUniform) {
      const double step = 1e9 / static_cast<double>(count);
      for (int64_t i = 0; i < count; ++i) {
        arrivals.push_back(base +
                           static_cast<SimTime>(step * static_cast<double>(i)));
      }
    } else {
      double t = 0.0;
      const double mean_gap = 1.0 / static_cast<double>(count);
      for (int64_t i = 0; i < count; ++i) {
        t += rng->NextExponential(mean_gap);
        arrivals.push_back(base + SecondsF(std::min(t, 0.999999)));
      }
    }
  }
  // Already ascending: each second's times lie in [base, base + 1 s) in
  // the order they were drawn (a uniform step times i, a Poisson sum that
  // only grows), and seconds ascend.
  DIABLO_CHECK(std::is_sorted(arrivals.begin(), arrivals.end()),
               "ExpandArrivals produced unsorted times");
  return arrivals;
}

}  // namespace diablo
