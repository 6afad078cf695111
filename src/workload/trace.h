// Workload traces: target submission rate per second of the run.
//
// The five DApp traces reproduce the shapes the paper reports in §3 /
// Table 2 from the original centralized services (NASDAQ, Steam/Dota 2,
// FIFA '98, Uber NYC, YouTube). Generation is deterministic: the "noise" in
// a trace derives from a hash of (trace name, second).
#ifndef SRC_WORKLOAD_TRACE_H_
#define SRC_WORKLOAD_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

namespace diablo {

struct Trace {
  std::string name;
  std::vector<double> tps;  // target transactions per second, one per second

  size_t duration_seconds() const { return tps.size(); }
  double AverageTps() const;
  double PeakTps() const;
  double TotalTxs() const;

  // Returns a copy with every rate multiplied by `factor` (quick-run
  // downscaling; shapes are preserved).
  Trace Scaled(double factor) const;
};

// Constant rate for `seconds` (the §6.2/§6.3 synthetic workloads).
Trace ConstantTrace(double tps, int seconds);

// One NASDAQ stock at the 9 AM opening: a burst of `peak` TPS decaying over
// a few seconds into a 10-60 TPS tail (§3). Stocks: "google" (800),
// "amazon" (1300), "facebook" (3000), "microsoft" (4000), "apple" (10000).
Trace NasdaqStockTrace(std::string_view stock);

// The accumulated GAFAM workload: 3 minutes, 19,800 TPS peak, 25-140 TPS
// tail (§3).
Trace NasdaqGafamTrace();

// Dota 2: 276 s at an almost constant ~13,000 TPS (§3).
Trace DotaTrace();

// FIFA '98 final: 176 s between 1,416 and 5,305 requests per second (§3).
Trace FifaTrace();

// Uber world-wide estimate: ~864 TPS; the §6.4 runs span 810-900 TPS over
// 120 s.
Trace UberTrace();

// YouTube uploads scaled to 2021: ~38,761 TPS (§3), 120 s.
Trace YoutubeTrace();

}  // namespace diablo

#endif  // SRC_WORKLOAD_TRACE_H_
