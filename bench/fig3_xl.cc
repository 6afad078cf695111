// Figure 3-XL: the validator axis pushed two orders of magnitude past the
// paper's committee sizes — 1k/5k/10k validators under a constant native
// workload, for the three engines whose message complexity stays tractable
// at that scale (HotStuff's linear leader rounds, Algorand's committee
// sortition, Avalanche's constant-size peer samples).
//
// Deployments this large take the streamed O(n)-byte delay model (see
// docs/performance.md) instead of the n×n matrix: at 10k validators the
// matrix alone would cost ~800 MB for a single cell.
#include <vector>

#include "bench/bench_util.h"

namespace diablo {
namespace {

void Run() {
  PrintHeader(
      "Figure 3-XL — validator-axis scalability: 100 TPS native transfers, 30 s\n"
      "(throughput TPS / latency s per validator count)");
  const double scale = ScaleFromEnv();
  const std::vector<int> counts = {1000, 5000, 10000};
  // diem = HotStuff, per Table 4.
  const std::vector<std::string> chains = {"diem", "algorand", "avalanche"};

  ParallelRunner runner;
  std::vector<ExperimentCell> cells;
  for (const std::string& chain : chains) {
    for (const int n : counts) {
      const std::string deployment = "xl-" + std::to_string(n);
      cells.push_back({chain + "/" + deployment, [chain, deployment, scale] {
                         return RunNativeBenchmark(chain, deployment, 100, 30,
                                                   /*seed=*/1, scale);
                       }});
    }
  }
  const std::vector<RunResult> results = RunCells(runner, std::move(cells));

  std::printf("%-10s", "chain");
  for (const int n : counts) {
    std::printf("  %16d nodes", n);
  }
  std::printf("\n");
  size_t cell = 0;
  for (const std::string& chain : chains) {
    std::printf("%-10s", chain.c_str());
    for (size_t c = 0; c < counts.size(); ++c, ++cell) {
      const RunResult& result = results[cell];
      std::printf("  %9.0f TPS %6.1f s", result.report.avg_throughput,
                  result.report.avg_latency);
    }
    std::printf("\n");
  }
  FinishRunnerReport("fig3_xl", runner);
}

}  // namespace
}  // namespace diablo

int main() {
  diablo::Run();
  return 0;
}
