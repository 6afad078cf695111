// One-call entry points used by the examples and the benchmark harness.
#ifndef SRC_CORE_RUNNER_H_
#define SRC_CORE_RUNNER_H_

#include <string>

#include "src/core/primary.h"

namespace diablo {

// Constant-rate native transfers (the §6.2/§6.3 synthetic workloads).
RunResult RunNativeBenchmark(const std::string& chain, const std::string& deployment,
                             double tps, int seconds, uint64_t seed = 1,
                             double scale = 1.0);

// One GetDappWorkload name: the five §3 DApp workloads "exchange", "dota",
// "fifa", "uber", "youtube", or a per-stock NASDAQ burst: "google",
// "microsoft", "apple", ...
RunResult RunDappBenchmark(const std::string& chain, const std::string& deployment,
                           const std::string& dapp, uint64_t seed = 1,
                           double scale = 1.0);

// Constant-rate native transfers under a fault schedule, with client
// retries. The resilience metrics (per-interval commit ratio, recovery
// times) land on the returned report.
RunResult RunFaultBenchmark(const std::string& chain, const std::string& deployment,
                            double tps, int seconds, const FaultSchedule& faults,
                            const RetryPolicy& retry, uint64_t seed = 1,
                            double scale = 1.0);

// Reads DIABLO_SCALE from the environment (default 1.0, clamped to
// (0, 1]; a value that does not parse, is not finite or is not positive
// reads as 1.0); the bench binaries use it to shrink the heaviest workloads.
double ScaleFromEnv();

}  // namespace diablo

#endif  // SRC_CORE_RUNNER_H_
