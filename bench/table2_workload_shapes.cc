// Table 2: the five DApps and their workload shapes (submitted transactions
// per second over time), regenerated from the trace generators (§3).
#include "bench/bench_util.h"
#include "src/workload/dapps.h"

namespace diablo {
namespace {

void Run() {
  PrintHeader("Table 2 — DApps and their real-trace workloads");
  std::printf("%-10s %-10s %-25s %8s %9s %9s %10s\n", "DApp", "contract", "trace",
              "secs", "avg TPS", "peak TPS", "total txs");
  for (const std::string& name : AllDappNames()) {
    const DappWorkload dapp = GetDappWorkload(name);
    const Trace& trace = dapp.trace;
    std::printf("%-10s %-10s %-25s %8zu %9.0f %9.0f %10.0f\n", name.c_str(),
                dapp.contract.c_str(), trace.name.c_str(), trace.duration_seconds(),
                trace.AverageTps(), trace.PeakTps(), trace.TotalTxs());
  }
  std::printf("\nsubmission-rate profiles (each row spans the trace duration):\n");
  for (const std::string& name : AllDappNames()) {
    const Trace trace = GetDappWorkload(name).trace;
    std::printf("%-10s |%s| peak %.0f TPS\n", name.c_str(),
                Sparkline(trace.tps, 60).c_str(), trace.PeakTps());
  }
  std::printf("\nNASDAQ per-stock opening bursts (first second):\n");
  for (const char* stock : {"google", "amazon", "facebook", "microsoft", "apple"}) {
    const Trace trace = GetDappWorkload(stock).trace;
    std::printf("%-10s |%s| burst %.0f TPS\n", stock, Sparkline(trace.tps, 60).c_str(),
                trace.tps[0]);
  }
}

}  // namespace
}  // namespace diablo

int main() {
  diablo::Run();
  return 0;
}
