// Shared helpers for the table/figure reproduction binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/core/parallel_runner.h"
#include "src/core/runner.h"
#include "src/support/stats.h"
#include "src/support/strings.h"

namespace diablo {

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

// Runs `cells` on `runner`, announcing the fan-out on stderr (so a user
// watching a slow sweep knows how many cells are in flight on how many
// workers, while stdout carries results only).
inline std::vector<RunResult> RunCells(ParallelRunner& runner,
                                       std::vector<ExperimentCell> cells) {
  std::fprintf(stderr, "[runner] %zu cells on %d worker%s (DIABLO_JOBS)\n",
               cells.size(), runner.jobs(), runner.jobs() == 1 ? "" : "s");
  return runner.Run(std::move(cells));
}

// Records the binary's runner stats into BENCH_runner.json (cwd), keeping
// other binaries' entries under the shared schema_version stamp
// (kRunnerStatsSchemaVersion), and prints two lines to stderr: the timed
// summary, then the cells' summed counts, which carry no timing and so read
// the same at any DIABLO_JOBS. Every binary that runs chain cells calls this
// (all but layers and table2-table4), so a full suite pass leaves one entry
// per runner binary in the file.
inline void FinishRunnerReport(const std::string& binary,
                               const ParallelRunner& runner) {
  const RunnerStats& stats = runner.stats();
  std::fprintf(
      stderr,
      "[runner] %s: %zu cells in %.2f s wall, %llu events (%.0f events/s), "
      "peak RSS %.1f MB with %d jobs (schema v%d)\n",
      binary.c_str(), stats.cells, stats.wall_seconds,
      static_cast<unsigned long long>(stats.total_events),
      stats.EventsPerSecond(), stats.peak_rss_mb, stats.jobs, kRunnerStatsSchemaVersion);
  std::fprintf(stderr, "[runner] %s counts: %s\n", binary.c_str(),
               CountsText(stats.total_events, stats.counts).c_str());
  if (!WriteRunnerStatsJson("BENCH_runner.json", binary, stats)) {
    std::fprintf(stderr, "[runner] warning: could not write BENCH_runner.json\n");
  }
}

inline void PrintRunRow(const std::string& label, const RunResult& result) {
  if (result.unsupported) {
    std::printf("%-28s  %s\n", label.c_str(), "(absent: contract not supported)");
    return;
  }
  if (!result.failure_reason.empty()) {
    std::printf("%-28s  X  (%s)\n", label.c_str(), result.failure_reason.c_str());
    return;
  }
  const Report& r = result.report;
  std::printf("%-28s  tput %8.1f TPS   lat %7.2f s   committed %5.1f%%\n",
              label.c_str(), r.avg_throughput, r.avg_latency, 100.0 * r.commit_ratio);
}

// An ASCII sparkline of a trace (one char per bucket of seconds).
inline std::string Sparkline(const std::vector<double>& values, size_t width) {
  static const char* kLevels = " .:-=+*#%@";
  if (values.empty() || width == 0) {
    return std::string();
  }
  double peak = 0;
  for (const double v : values) {
    peak = std::max(peak, v);
  }
  if (peak <= 0) {
    return std::string(width, ' ');
  }
  std::string out;
  for (size_t i = 0; i < width; ++i) {
    const size_t from = i * values.size() / width;
    const size_t to = std::max(from + 1, (i + 1) * values.size() / width);
    double bucket = 0;
    for (size_t j = from; j < to && j < values.size(); ++j) {
      bucket = std::max(bucket, values[j]);
    }
    const int level = static_cast<int>(9.0 * bucket / peak);
    out.push_back(kLevels[level]);
  }
  return out;
}

}  // namespace diablo

#endif  // BENCH_BENCH_UTIL_H_
