#include "src/core/runner.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/support/strings.h"

namespace diablo {

RunResult RunNativeBenchmark(const std::string& chain, const std::string& deployment,
                             double tps, int seconds, uint64_t seed, double scale) {
  BenchmarkSetup setup;
  setup.chain = chain;
  setup.deployment = deployment;
  setup.seed = seed;
  setup.scale = scale;
  Primary primary(setup);
  return primary.RunNative(ConstantTrace(tps, seconds));
}

RunResult RunDappBenchmark(const std::string& chain, const std::string& deployment,
                           const std::string& dapp, uint64_t seed, double scale) {
  BenchmarkSetup setup;
  setup.chain = chain;
  setup.deployment = deployment;
  setup.seed = seed;
  setup.scale = scale;
  Primary primary(setup);
  return primary.RunDapp(GetDappWorkload(dapp));
}

RunResult RunFaultBenchmark(const std::string& chain, const std::string& deployment,
                            double tps, int seconds, const FaultSchedule& faults,
                            const RetryPolicy& retry, uint64_t seed, double scale) {
  BenchmarkSetup setup;
  setup.chain = chain;
  setup.deployment = deployment;
  setup.seed = seed;
  setup.scale = scale;
  setup.faults = faults;
  setup.retry = retry;
  Primary primary(setup);
  return primary.RunNative(ConstantTrace(tps, seconds));
}

double ScaleFromEnv() {
  const char* raw = std::getenv("DIABLO_SCALE");
  if (raw == nullptr) {
    return 1.0;
  }
  double value = 1.0;
  if (!ParseDouble(raw, &value) || !std::isfinite(value) || value <= 0.0) {
    return 1.0;
  }
  return std::min(value, 1.0);
}

}  // namespace diablo
