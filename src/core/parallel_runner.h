// Parallel experiment execution (the benchmark matrix fan-out).
//
// The paper's evaluation is a grid of independent (chain, workload,
// deployment, scale, seed) cells; each cell owns its own Simulation, Network
// and RNG streams, so cells can run on any thread in any order without
// perturbing each other. The runner fans cells across worker threads and
// returns results in cell order.
//
// Determinism contract: a cell's seed is a pure function of the experiment
// grid (base seed and cell position — see CellSeed), never of thread
// identity or scheduling, and cells share no mutable state: every count a
// cell makes, its checked builds' sampling ticks included, lives in objects
// the cell owns. So results and counts are bit-identical to a serial run and
// invariant to DIABLO_JOBS.
#ifndef SRC_CORE_PARALLEL_RUNNER_H_
#define SRC_CORE_PARALLEL_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/primary.h"

namespace diablo {

// One independent benchmark run: a label for reports plus a closure that
// builds and runs the whole experiment (Primary, Simulation, Network, ...).
struct ExperimentCell {
  std::string label;
  std::function<RunResult()> run;
};

// Cumulative execution statistics, the payload of BENCH_runner.json.
struct RunnerStats {
  int jobs = 1;
  size_t cells = 0;
  double wall_seconds = 0;
  uint64_t total_events = 0;  // simulator events summed over all cells
  RunCounts counts;           // the cells' other counts, summed
  // The process's peak resident set (1 MB = 10^6 bytes) when the last Run
  // returned: the largest cell plus everything alive beside it.
  double peak_rss_mb = 0;

  double EventsPerSecond() const {
    return wall_seconds > 0 ? static_cast<double>(total_events) / wall_seconds : 0;
  }
};

class ParallelRunner {
 public:
  // jobs <= 0 means JobsFromEnv().
  explicit ParallelRunner(int jobs = 0);

  // Runs every cell and returns their results in cell order. min(jobs,
  // cells) workers, the calling thread among them, claim cells in cell
  // order until none is left. Once every cell has finished, the exception
  // of the first failed cell in cell order, if any, propagates.
  std::vector<RunResult> Run(std::vector<ExperimentCell> cells);

  int jobs() const { return jobs_; }

  // Accumulated across every Run() call on this runner.
  const RunnerStats& stats() const { return stats_; }

  // DIABLO_JOBS from the environment; unset, empty or invalid values fall
  // back to the hardware concurrency.
  static int JobsFromEnv();

 private:
  int jobs_;
  RunnerStats stats_;
};

// Deterministic per-cell seed: mixes the grid position into the base seed so
// every cell gets an independent stream no matter which thread runs it.
uint64_t CellSeed(uint64_t base_seed, uint64_t cell_index);

// Version stamp of the BENCH_runner.json layout. Version 2 added the
// top-level "schema_version" key itself; version 3 added the "kernels" entry
// (message-plane kernel times written by micro_benchmarks) alongside the
// per-runner-binary stats; version 4 keeps only each kernel's "current_ns"
// in it; version 5 added each runner binary's "peak_rss_mb"; version 6 added
// its summed counts ("arrivals", "vote_rounds", "vote_receivers",
// "sortition_draws", "vm_ops"). Bump it when an
// entry field is added, removed or changes meaning, so perf-trajectory
// tooling comparing files across PRs can tell layouts apart.
inline constexpr int kRunnerStatsSchemaVersion = 6;

// Writes (or updates) `path` — a JSON object with a "schema_version" stamp
// plus one member per benchmark binary mapping to its runner stats —
// replacing this binary's entry and keeping the others, so successive bench
// binaries accumulate into one report. Returns false on I/O failure.
bool WriteRunnerStatsJson(const std::string& path, const std::string& binary,
                          const RunnerStats& stats);

// Same merge-and-rewrite, but with a caller-provided pre-serialized JSON
// value for `key` — used for entries that are not RunnerStats, like the
// micro-kernel summary.
bool WriteRunnerJsonEntry(const std::string& path, const std::string& key,
                          const std::string& entry_json);

}  // namespace diablo

#endif  // SRC_CORE_PARALLEL_RUNNER_H_
